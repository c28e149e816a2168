(* Process and socket plumbing for the load generator: spawning the
   serving binaries, /proc readers, and a non-blocking line-protocol
   connection driven by one select loop (the generator uses a single
   thread for both of its connections). *)

(* Monotonic seconds, nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Serving processes                                                   *)

type proc = { pid : int; mutable port : int }

let live_procs : proc list ref = ref []

let stop p =
  if List.memq p !live_procs then begin
    live_procs := List.filter (fun q -> q != p) !live_procs;
    (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 5. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ ->
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] p.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ()
  end

let stop_all () = List.iter stop !live_procs
let () = at_exit stop_all

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Spawn [exe args] with stdout/stderr to [log] and wait for its
   "listening on HOST:PORT" line. *)
let spawn ~exe ~args ~log ~name =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) rd out out in
  Unix.close rd;
  Unix.close wr;
  Unix.close out;
  let p = { pid; port = 0 } in
  live_procs := p :: !live_procs;
  let deadline = now () +. 60. in
  let marker = "listening on " in
  let rec wait () =
    let text = try read_file log with Sys_error _ -> "" in
    match Reference.find_sub text marker with
    | Some i ->
        let rest = String.sub text (i + String.length marker) (String.length text - i - String.length marker) in
        let addr = List.hd (String.split_on_char ' ' (List.hd (String.split_on_char '\n' rest))) in
        let colon = String.rindex addr ':' in
        p.port <- int_of_string (String.sub addr (colon + 1) (String.length addr - colon - 1))
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live_procs := List.filter (fun q -> q != p) !live_procs;
            failwith (Printf.sprintf "%s exited before listening:\n%s" name text));
        if now () > deadline then failwith (name ^ " did not start listening");
        Unix.sleepf 0.0005;
        wait ()
  in
  wait ();
  p

(* utime + stime of a process, in seconds (USER_HZ is 100 on Linux). *)
let cpu_seconds p =
  let s = read_file (Printf.sprintf "/proc/%d/stat" p.pid) in
  let fields =
    String.split_on_char ' ' (String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2))
  in
  (* fields.(0) is the state (field 3 of stat): utime is field 14, stime 15. *)
  let f k = float_of_string (List.nth fields (k - 3)) in
  (f 14 +. f 15) /. 100.

(* Peak resident set (VmHWM), in MiB. *)
let peak_rss_mb p =
  let s = read_file (Printf.sprintf "/proc/%d/status" p.pid) in
  match
    List.find_opt (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  with
  | None -> 0.
  | Some l ->
      let kb =
        List.find_map int_of_string_opt
          (String.split_on_char ' ' (String.sub l 6 (String.length l - 6)))
      in
      float_of_int (Option.value kb ~default:0) /. 1024.

(* Host CPU ticks: (steal, total) from the aggregate line of /proc/stat. *)
let host_ticks () =
  let s = read_file "/proc/stat" in
  let line = List.hd (String.split_on_char '\n' s) in
  let nums = List.filter_map int_of_string_opt (String.split_on_char ' ' line) in
  let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) nums) in
  let steal = match List.nth_opt nums 7 with Some x -> x | None -> 0 in
  (steal, total)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rpos : int;
  mutable rend : int;
  mutable rscan : int;  (** No newline in [rpos, rscan). *)
  out : Buffer.t;
  mutable opos : int;
  mutable eof : bool;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; rbuf = Bytes.create (1 lsl 16); rpos = 0; rend = 0; rscan = 0; out = Buffer.create 4096;
    opos = 0; eof = false }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let pending_out c = Buffer.length c.out > c.opos

let send c line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n'

(* Write as much buffered output as the socket takes. *)
let flush c =
  let rec go () =
    let len = Buffer.length c.out - c.opos in
    if len > 0 then
      match Unix.write_substring c.fd (Buffer.contents c.out) c.opos len with
      | k ->
          c.opos <- c.opos + k;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  if c.opos = Buffer.length c.out then begin
    Buffer.clear c.out;
    c.opos <- 0
  end

(* Read what is available and hand every complete line to
   [on_line buf pos len] (the terminator excluded). *)
let read_lines c on_line =
  if c.rend = Bytes.length c.rbuf then begin
    if c.rpos > 0 then begin
      Bytes.blit c.rbuf c.rpos c.rbuf 0 (c.rend - c.rpos);
      c.rend <- c.rend - c.rpos;
      c.rscan <- c.rscan - c.rpos;
      c.rpos <- 0
    end
    else begin
      let b = Bytes.create (2 * Bytes.length c.rbuf) in
      Bytes.blit c.rbuf 0 b 0 c.rend;
      c.rbuf <- b
    end
  end;
  (match Unix.read c.fd c.rbuf c.rend (Bytes.length c.rbuf - c.rend) with
  | 0 -> c.eof <- true
  | k -> c.rend <- c.rend + k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.eof <- true);
  let rec scan () =
    match Bytes.index_from_opt c.rbuf c.rscan '\n' with
    | Some i when i < c.rend ->
        let len = if i > c.rpos && Bytes.get c.rbuf (i - 1) = '\r' then i - c.rpos - 1 else i - c.rpos in
        on_line c.rbuf c.rpos len;
        c.rpos <- i + 1;
        c.rscan <- i + 1;
        scan ()
    | _ -> c.rscan <- c.rend
  in
  scan ();
  if c.rpos = c.rend then begin
    c.rpos <- 0;
    c.rend <- 0;
    c.rscan <- 0
  end

(* Block until a line arrives and return it (greetings and lone round
   trips: any further line already received is dropped). *)
let read_one c ~timeout =
  let got = ref None in
  let deadline = now () +. timeout in
  while !got = None do
    if c.eof then failwith "connection closed";
    if now () > deadline then failwith "timed out waiting for a reply";
    (match Unix.select [ c.fd ] [] [] 0.5 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    read_lines c (fun b pos len -> if !got = None then got := Some (Bytes.sub_string b pos len))
  done;
  Option.get !got

let select rd wr timeout =
  match Unix.select rd wr [] (Float.max 0. timeout) with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
