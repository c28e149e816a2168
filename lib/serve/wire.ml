(* Shared socket plumbing for the line-protocol transports: a bounded
   line reader over a raw fd, and the per-connection reply machinery —
   an ordered cell queue of reply slots, a counting-semaphore window
   bounding reader lead, and a writer thread that flushes every
   consecutive ready reply with one [write] (writev-style coalescing).
   Both the admission server's TCP transport and the cluster
   dispatcher's client/upstream connections are built on it. *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Bounded line reader over a raw fd: a fixed chunk buffer plus an
   accumulator capped at [max_line] — an oversized request line is a
   protocol error, not an unbounded allocation. *)
let max_line = 1 lsl 20

type reader = {
  rfd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rlen : int;
  mutable rpos : int;
  acc : Buffer.t;
}

let make_reader rfd =
  { rfd; rbuf = Bytes.create 4096; rlen = 0; rpos = 0; acc = Buffer.create 256 }

(* One [read] into the consumed chunk buffer.  At EOF a partial final
   line behaves like [input_line]'s. *)
let refill r =
  match Unix.read r.rfd r.rbuf 0 (Bytes.length r.rbuf) with
  | 0 ->
      if Buffer.length r.acc > 0 then begin
        let s = Buffer.contents r.acc in
        Buffer.clear r.acc;
        `Line s
      end
      else `Eof
  | n ->
      r.rlen <- n;
      r.rpos <- 0;
      `Read
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Read
  | exception Unix.Unix_error (e, _, _) -> `Error e

let rec read_line r =
  if Buffer.length r.acc > max_line then `Too_long
  else if r.rpos >= r.rlen then
    match refill r with `Read -> read_line r | (`Line _ | `Eof | `Error _) as v -> v
  else
    match Bytes.index_from_opt r.rbuf r.rpos '\n' with
    | Some i when i < r.rlen ->
        if Buffer.length r.acc + (i - r.rpos) > max_line then
          (* The newline arrived, but the line already blew the cap: the
             bound is exact, not chunk-granular.  Nothing is consumed, so
             the result is sticky — every later call answers the same. *)
          `Too_long
        else if Buffer.length r.acc = 0 then begin
          (* Hot path: the whole line sits inside the chunk buffer, so
             one [Bytes.sub_string] builds it — no accumulator round
             trip, no second copy to strip the [\r]. *)
          let stop =
            if i > r.rpos && Bytes.get r.rbuf (i - 1) = '\r' then i - 1 else i
          in
          let s = Bytes.sub_string r.rbuf r.rpos (stop - r.rpos) in
          r.rpos <- i + 1;
          `Line s
        end
        else begin
          Buffer.add_subbytes r.acc r.rbuf r.rpos (i - r.rpos);
          r.rpos <- i + 1;
          let s = Buffer.contents r.acc in
          Buffer.clear r.acc;
          let s =
            if String.length s > 0 && s.[String.length s - 1] = '\r' then
              String.sub s 0 (String.length s - 1)
            else s
          in
          `Line s
        end
    | _ ->
        Buffer.add_subbytes r.acc r.rbuf r.rpos (r.rlen - r.rpos);
        r.rpos <- r.rlen;
        read_line r

(* [select] with a zero timeout: data or EOF is waiting (a regular file
   always is).  An fd past [FD_SETSIZE] reads as not ready. *)
let ready fd =
  match Unix.select [ fd ] [] [] 0. with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EINVAL), _, _) -> false

(* [read_line] without waiting on the peer: finish a buffered line, and
   [read] again only while the fd is ready, keeping a partial line in
   [acc]; [`None] once a line would need a blocking [read]. *)
let rec ready_line r =
  match Bytes.index_from_opt r.rbuf r.rpos '\n' with
  | Some i when i < r.rlen -> read_line r
  | _ when Buffer.length r.acc > max_line -> `Too_long
  | _ when not (ready r.rfd) -> `None
  | _ -> (
      Buffer.add_subbytes r.acc r.rbuf r.rpos (r.rlen - r.rpos);
      r.rpos <- r.rlen;
      match refill r with `Read -> ready_line r | (`Line _ | `Eof | `Error _) as v -> v)

(* A reply slot: filled with the rendered line by whoever resolves the
   request (a drainer domain, an upstream receiver thread, or the
   reader itself for control replies), written by the connection's
   writer thread in queue order. *)
type pending = { mutable line : string option }

type cell =
  | Out of pending
  | End of string option  (* final line (if any), then teardown *)

type conn = {
  fd : Unix.file_descr;
  cmu : Mutex.t;
  filled : Condition.t;  (* a cell was pushed or a pending was filled *)
  cells : cell Queue.t;
  window : Semaphore.Counting.t;  (* bounds reader lead over writer *)
  window_size : int;
}

let make_conn ?(window = 64) fd =
  let window_size = max 1 window in
  {
    fd;
    cmu = Mutex.create ();
    filled = Condition.create ();
    cells = Queue.create ();
    window = Semaphore.Counting.make window_size;
    window_size;
  }

let push_cell conn cell =
  Mutex.lock conn.cmu;
  Queue.push cell conn.cells;
  Condition.signal conn.filled;
  Mutex.unlock conn.cmu

(* Acquire a window slot, then queue an already-rendered reply line. *)
let push_line conn line =
  Semaphore.Counting.acquire conn.window;
  push_cell conn (Out { line = Some line })

(* Resolve a reply slot from another thread/domain.  Both the writer
   and a reader at its {!await} barrier wait on [filled], so wake all. *)
let fill conn p line =
  Mutex.lock conn.cmu;
  p.line <- Some line;
  Condition.broadcast conn.filled;
  Mutex.unlock conn.cmu

let await conn slots =
  Mutex.lock conn.cmu;
  while List.exists (fun p -> p.line = None) slots do
    Condition.wait conn.filled conn.cmu
  done;
  Mutex.unlock conn.cmu

(* Writer thread: pops cells in order, blocking while the head is an
   unfilled reply slot.  Consecutive ready replies are coalesced into
   one [write] — under pipelining a drained batch of replies costs one
   syscall, not one per line.  Write errors switch to discard mode
   rather than abandoning the queue: every slot must still be consumed
   so the window releases and later fills go somewhere. *)
let writer_loop conn =
  let dead = ref false in
  let buf = Buffer.create 4096 in
  let flush_buf () =
    if Buffer.length buf > 0 then begin
      (if not !dead then
         try write_all conn.fd (Buffer.contents buf)
         with Unix.Unix_error _ -> dead := true);
      Buffer.clear buf
    end
  in
  (* Under [conn.cmu]: wait until the head cell is ready, then pop it
     and every consecutive ready cell (stopping after an [End]). *)
  let rec ready_run () =
    match Queue.peek_opt conn.cells with
    | None | Some (Out { line = None }) ->
        Condition.wait conn.filled conn.cmu;
        ready_run ()
    | Some _ ->
        let rec take acc =
          match Queue.peek_opt conn.cells with
          | Some (Out { line = Some _ } as cell) ->
              ignore (Queue.pop conn.cells);
              take (cell :: acc)
          | Some (End _ as cell) ->
              ignore (Queue.pop conn.cells);
              List.rev (cell :: acc)
          | _ -> List.rev acc
        in
        take []
  in
  let rec loop () =
    Mutex.lock conn.cmu;
    let run = ready_run () in
    Mutex.unlock conn.cmu;
    let finished =
      List.fold_left
        (fun finished cell ->
          match cell with
          | Out { line = Some l } ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n';
              finished
          | Out { line = None } -> assert false
          | End last ->
              Option.iter
                (fun l ->
                  Buffer.add_string buf l;
                  Buffer.add_char buf '\n')
                last;
              true)
        false run
    in
    flush_buf ();
    (* Release one window slot per flushed reply, after the write: the
       window bounds rendered-but-unwritten replies. *)
    List.iter
      (function
        | Out _ -> Semaphore.Counting.release conn.window
        | End _ -> ())
      run;
    if not finished then loop ()
  in
  loop ()

let spawn_writer conn = Thread.create writer_loop conn
