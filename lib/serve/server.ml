module Obs = E2e_obs.Obs

let pong = "pong " ^ Protocol.version

let error_line ?(schedules = true) message =
  Protocol.render_reply ~schedules
    (Batcher.Reply (Admission.Request_error { shop = "-"; message }))

(* ------------------------------------------------------------------ *)
(* The session engine, shared by stdio and TCP.

   A connection's reader works in {e chunks}: it blocks for one line,
   then takes every further line it can read without blocking
   ({!Wire.ready_line}: buffered, or [select] reports the fd ready) up
   to [min batch window] lines (blank and comment lines count).  It
   parses the whole chunk, queueing one reply slot per answered line in
   order; submits the chunk's requests to each stripe in one hold of
   that stripe's [smu]; waits until they are all answered; renders the
   chunk's [stats]/[metrics]; and only then reads on.  So a stripe's
   queue holds at most one chunk of a connection — a regular file is
   always ready, so a stdio file replay is cut every [min batch window]
   lines and its batches (and [stats]/[metrics] bytes) depend only on
   the file, and no drainer ever waits for a batch to fill — control
   replies observe the connection's own earlier requests, and an
   interactive client is answered as soon as its line arrives.

   Requests are routed by shop to a {!Stripes} batcher stripe — same
   shop, same stripe — and one drainer domain per stripe steps its
   batcher and routes replies back.  Per-connection reply streams stay
   byte-identical at every [jobs] value and {e at every stripe count}
   (and under any cross-connection interleaving) as long as connections
   use disjoint shop namespaces: an admission decision reads only its
   own shop's committed set, the stripe map is a pure function of the
   shop name, and the canonical cache is transparency-verified.

   Domain/thread layout and locking:
   - each stripe has its own [smu] ordering every touch of its batcher
     (submit, step, per-stripe [Rtrace] marks) and its [sroute] FIFO of
     reply slots parallel to that batcher's request queue;
   - [stats]/[metrics] render an aggregated snapshot by locking all
     stripes in index order (drainers only ever hold their own lock,
     so the order is deadlock-free);
   - each connection runs its reader in its own domain (an accept
     domain, or the caller's for stdio) and one writer thread;
     [conn.cmu] protects the cell queue, and the counting semaphore
     [conn.window] bounds reader lead over the writer.  A chunk never
     holds more slots than the window and is answered before the next
     chunk takes any, so a reader blocked on the window always waits on
     slots a drainer will fill;
   - only the reader and drainer domains touch [Obs]/[Rtrace]
     (writer threads get pre-rendered lines), so each domain-local
     telemetry store keeps a single writing thread. *)

(* One stripe's serialised submit/drain path. *)
type lane = {
  sbatcher : Batcher.t;
  smu : Mutex.t;  (* orders every touch of this stripe's batcher *)
  skick : Condition.t;  (* work queued or stop requested *)
  sroute : (Wire.conn * Wire.pending) Queue.t;  (* reply slots, batcher queue order *)
  mutable sstop : bool;
}

type center = {
  stripes : Stripes.t;
  lanes : lane array;  (* one per stripe *)
  schedules : bool;
  read_errors : int Atomic.t option;
      (* a listener's hard transport read errors (not EOFs); [None] on stdio *)
}

(* Aggregated stats/metrics: lock every stripe in index order so the
   snapshot is consistent per stripe and the lock order is global. *)
let render_control center c =
  Array.iter (fun l -> Mutex.lock l.smu) center.lanes;
  let read_errors = Option.map Atomic.get center.read_errors in
  let line =
    match c with
    | `Stats -> Protocol.render_stats_striped ?read_errors center.stripes
    | `Metrics -> Protocol.render_metrics_striped ?read_errors center.stripes
  in
  Array.iter (fun l -> Mutex.unlock l.smu) center.lanes;
  line

(* One chunk: block for the first line, then take the lines that need
   no blocking [read], up to [cap] in all.  [`Open] means the stream
   goes on; a chunk ending any other way is the session's last. *)
let take_chunk r cap =
  let rec more acc k =
    if k = 0 then (List.rev acc, `Open)
    else
      match Wire.ready_line r with
      | `Line l -> more (l :: acc) (k - 1)
      | `None -> (List.rev acc, `Open)
      | (`Eof | `Too_long | `Error _) as stop -> (List.rev acc, stop)
  in
  match Wire.read_line r with
  | `Line l -> more [ l ] (cap - 1)
  | (`Eof | `Too_long | `Error _) as stop -> ([], stop)

(* A reply slot at the connection's next position: the window is
   acquired before the cell is queued. *)
let slot (conn : Wire.conn) =
  Semaphore.Counting.acquire conn.window;
  let p = { Wire.line = None } in
  Wire.push_cell conn (Out p);
  p

let reader_loop center (conn : Wire.conn) r =
  let schedules = center.schedules in
  let cap = min (Stripes.config center.stripes).Batcher.batch conn.window_size in
  Obs.incr "serve.sessions";
  let rec loop () =
    let lines, stop = take_chunk r cap in
    (* Per stripe, the chunk's requests and their slots, newest first. *)
    let submits = Array.make (Array.length center.lanes) [] in
    let rec parse slots controls = function
      | [] -> (slots, controls, stop)
      | line :: rest -> (
          match Protocol.parse_request line with
          | Ok Protocol.Blank -> parse slots controls rest
          | Ok (Protocol.Hello requested) ->
              Wire.push_line conn (Protocol.render_hello ~requested);
              parse slots controls rest
          | Ok Protocol.Ping ->
              Wire.push_line conn pong;
              parse slots controls rest
          | Ok Protocol.Stats -> parse slots ((`Stats, slot conn) :: controls) rest
          | Ok Protocol.Metrics -> parse slots ((`Metrics, slot conn) :: controls) rest
          | Ok Protocol.Quit -> (slots, controls, `Quit)
          | Ok (Protocol.Request req) ->
              let p = slot conn and k = Stripes.stripe_of center.stripes req in
              submits.(k) <- (req, p) :: submits.(k);
              parse (p :: slots) controls rest
          | Error message ->
              Wire.push_line conn (error_line ~schedules message);
              parse slots controls rest)
    in
    let slots, controls, stop = parse [] [] lines in
    Array.iteri
      (fun k mine ->
        if mine <> [] then begin
          let lane = center.lanes.(k) in
          Mutex.lock lane.smu;
          List.iter
            (fun (req, p) ->
              match Batcher.submit lane.sbatcher req with
              | `Queued -> Queue.push (conn, p) lane.sroute
              | `Overloaded ->
                  Wire.fill conn p (Protocol.render_reply ~schedules Batcher.Overloaded))
            (List.rev mine);
          Condition.signal lane.skick;
          Mutex.unlock lane.smu
        end)
      submits;
    (* The barrier: this chunk is answered before its controls render
       and before the next chunk is read. *)
    Wire.await conn slots;
    List.iter (fun (c, p) -> Wire.fill conn p (render_control center c)) (List.rev controls);
    match stop with
    | `Open -> loop ()
    | `Quit -> Wire.push_cell conn (End (Some "bye"))
    | `Eof -> Wire.push_cell conn (End None)
    | `Error _ ->
        (* A half-closed or reset peer, not an orderly EOF: count it so
           stats distinguish connection failures from hangups. *)
        Option.iter Atomic.incr center.read_errors;
        Obs.incr "serve.read_errors";
        Wire.push_cell conn (End None)
    | `Too_long ->
        (* The oversized line was never fully read: answer the protocol
           error and end the session (resynchronising mid-line would
           misparse its tail as requests). *)
        Wire.push_cell conn (End (Some (error_line ~schedules "request line too long")))
  in
  loop ()

(* Drainer domain (one per stripe): step the stripe's batcher whenever
   requests are pending and route each reply to its slot.  Replies come
   back in submission order and [sroute] is pushed in submission order
   under the same mutex, so the head of [sroute] is always the slot of
   the head reply.  A reader submits its whole chunk in one hold of
   [smu], so a batch never waits on a timer for the rest of it. *)
let drainer_loop schedules lane =
  Mutex.lock lane.smu;
  let rec loop () =
    if Batcher.pending lane.sbatcher > 0 then begin
      List.iter
        (fun (_req, tr, reply) ->
          let conn, p = Queue.pop lane.sroute in
          let line = Protocol.render_reply ~schedules (Batcher.Reply reply) in
          (* The reply line exists: close the render stage here, on the
             one domain that owns this stripe's trace activity. *)
          Rtrace.finish tr;
          Wire.fill conn p line)
        (Batcher.step lane.sbatcher);
      loop ()
    end
    else if not lane.sstop then begin
      Condition.wait lane.skick lane.smu;
      loop ()
    end
  in
  loop ();
  Mutex.unlock lane.smu

(* Run [f] over a center with one drainer domain per stripe; stop and
   join the drainers when [f] returns (queued requests are still
   answered first). *)
let with_center ~schedules ~read_errors stripes f =
  let lanes =
    Array.map
      (fun b ->
        {
          sbatcher = b;
          smu = Mutex.create ();
          skick = Condition.create ();
          sroute = Queue.create ();
          sstop = false;
        })
      (Stripes.batchers stripes)
  in
  let drainers = Array.map (fun lane -> Domain.spawn (fun () -> drainer_loop schedules lane)) lanes in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun lane ->
          Mutex.lock lane.smu;
          lane.sstop <- true;
          Condition.broadcast lane.skick;
          Mutex.unlock lane.smu)
        lanes;
      Array.iter Domain.join drainers)
    (fun () -> f { stripes; lanes; schedules; read_errors })

let session ?(schedules = true) stripes in_fd out_fd =
  with_center ~schedules ~read_errors:None stripes (fun center ->
      Wire.write_all out_fd (Protocol.greeting ^ "\n");
      let conn = Wire.make_conn out_fd in
      let writer = Wire.spawn_writer conn in
      Fun.protect
        ~finally:(fun () -> Thread.join writer)
        (fun () ->
          try reader_loop center conn (Wire.make_reader in_fd)
          with e ->
            Wire.push_cell conn (End None);
            raise e))

let serve_stdio ?schedules stripes = session ?schedules stripes Unix.stdin Unix.stdout

let serve_tcp ?(schedules = true) ?host ?max_connections ?accept_pool ?window ?ready
    ?control ~port stripes =
  with_center ~schedules ~read_errors:(Some (Atomic.make 0)) stripes (fun center ->
      Listener.serve ?host ?max_connections ?accept_pool ?window ?ready ?control
        ~greeting:Protocol.greeting ~port (reader_loop center))
