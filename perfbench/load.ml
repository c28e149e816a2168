(* The load generator: one process, one thread, two connections to the
   entry server.  Connection 0 carries the workload stream; connection 1
   is an operator scraping [metrics].  Every workload reply is digested
   and kept in stream order for the correctness gate. *)

open Client

type session = {
  procs : proc list;  (** Every serving process (entry last). *)
  work : conn;
  ops : conn;
  lines : string array;  (** Rendered request lines, seeding prefix first. *)
  digests : Digest.t array;  (** Digest of reply [i], filled as replies arrive. *)
  recv_at : float array;
  mutable sent : int;
  mutable recvd : int;
  mutable decided : int;
  mutable admitted : int;
  mutable refused : int;  (** [overloaded] and [error shard-unavailable] replies. *)
}

let classify s b pos len =
  let starts p =
    let k = String.length p in
    len >= k && Bytes.sub_string b pos k = p
  in
  if starts "admitted " then begin
    s.decided <- s.decided + 1;
    s.admitted <- s.admitted + 1
  end
  else if starts "rejected " || starts "undecided " then s.decided <- s.decided + 1
  else if starts "overloaded" || starts "error shard-unavailable" then
    s.refused <- s.refused + 1

let on_work_line s t b pos len =
  if s.recvd < Array.length s.digests then begin
    s.digests.(s.recvd) <- Digest.subbytes b pos len;
    s.recv_at.(s.recvd) <- t;
    classify s b pos len;
    s.recvd <- s.recvd + 1
  end

let stall_limit = 30.

(* Closed loop over lines [s.sent, hi): keep [window] requests in flight
   until every reply of the range is in (or the server stalls). *)
let closed_loop s ~hi ~window =
  let last_progress = ref (now ()) in
  while s.recvd < hi && not s.work.eof && now () -. !last_progress < stall_limit do
    while s.sent < hi && s.sent - s.recvd < window do
      send s.work s.lines.(s.sent);
      s.sent <- s.sent + 1
    done;
    flush s.work;
    let wr = if pending_out s.work then [ s.work.fd ] else [] in
    let r, _ = select [ s.work.fd ] wr 1.0 in
    if r <> [] then begin
      let before = s.recvd in
      let t = now () in
      read_lines s.work (on_work_line s t);
      if s.recvd > before then last_progress := t
    end
  done

type paced = {
  due : float array;  (** Due time of each paced request (absolute). *)
  late : float array;  (** Actual send time minus due time. *)
  scrapes : float list;  (** Operator [metrics] round trips, seconds. *)
}

(* Open loop over lines [s.sent, hi) at [rate] requests/s (uniform
   spacing), with the operator sending one [metrics] scrape every
   [scrape_every] seconds (one outstanding at a time) until the last
   request is sent. *)
let paced_loop s ~hi ~rate ~scrape_every =
  let lo = s.sent in
  let n = hi - lo in
  let t0 = now () +. 0.001 in
  let due = Array.init n (fun i -> t0 +. (float_of_int i /. rate)) in
  let late = Array.make n 0. in
  let scrapes = ref [] in
  let scrape_sent = ref None in
  let next_scrape = ref t0 in
  let last_progress = ref t0 in
  let on_scrape _ _ _ =
    match !scrape_sent with
    | Some t ->
        scrapes := (now () -. t) :: !scrapes;
        scrape_sent := None
    | None -> ()
  in
  while
    (s.recvd < hi || !scrape_sent <> None)
    && (not s.work.eof) && (not s.ops.eof)
    && now () -. !last_progress < stall_limit
  do
    let t = now () in
    while s.sent < hi && due.(s.sent - lo) <= t do
      late.(s.sent - lo) <- t -. due.(s.sent - lo);
      send s.work s.lines.(s.sent);
      s.sent <- s.sent + 1
    done;
    flush s.work;
    if s.sent < hi && !scrape_sent = None && t >= !next_scrape then begin
      send s.ops "metrics";
      flush s.ops;
      scrape_sent := Some t;
      next_scrape := !next_scrape +. scrape_every
    end;
    let wake =
      Float.min
        (if s.sent < hi then due.(s.sent - lo) else t +. 1.0)
        (if s.sent < hi && !scrape_sent = None then !next_scrape else t +. 1.0)
    in
    let wr =
      (if pending_out s.work then [ s.work.fd ] else [])
      @ if pending_out s.ops then [ s.ops.fd ] else []
    in
    let r, w = select [ s.work.fd; s.ops.fd ] wr (wake -. now ()) in
    if List.mem s.ops.fd w then flush s.ops;
    let t = now () in
    if List.mem s.ops.fd r then read_lines s.ops on_scrape;
    if List.mem s.work.fd r then begin
      let before = s.recvd in
      read_lines s.work (on_work_line s t);
      if s.recvd > before then last_progress := t
    end;
    if s.sent < hi then last_progress := Float.max !last_progress t
  done;
  { due; late; scrapes = !scrapes }

let spawn_servers ~bin ~dir ~topology =
  let serve i extra =
    spawn ~exe:(Filename.concat bin "serve.exe")
      ~args:([ "--tcp"; "0" ] @ extra)
      ~log:(Filename.concat dir (Printf.sprintf "serve%d.log" i))
      ~name:"e2e-serve"
  in
  match topology with
  | `Single -> [ serve 0 [] ]
  | `Cluster shards ->
      let shards = List.init shards (fun i -> serve i []) in
      let addrs = String.concat "," (List.map (fun p -> Printf.sprintf "127.0.0.1:%d" p.port) shards) in
      let d =
        spawn ~exe:(Filename.concat bin "dispatch.exe")
          ~args:[ "--port"; "0"; "--shards"; addrs ]
          ~log:(Filename.concat dir "dispatch.log") ~name:"e2e-dispatch"
      in
      shards @ [ d ]

(* Spawn the servers, open both connections and send the seeding
   prefix; the timed phases start right after this returns. *)
let setup ~bin ~dir ~topology ~lines ~n_seed ~window =
  let procs = spawn_servers ~bin ~dir ~topology in
  let entry = List.nth procs (List.length procs - 1) in
  let work = connect entry.port and ops = connect entry.port in
  ignore (read_one work ~timeout:10.);
  ignore (read_one ops ~timeout:10.);
  let n = Array.length lines in
  let s =
    { procs; work; ops; lines; digests = Array.make n (Digest.string ""); recv_at = Array.make n 0.;
      sent = 0; recvd = 0; decided = 0; admitted = 0; refused = 0 }
  in
  closed_loop s ~hi:n_seed ~window;
  s

let teardown s =
  List.iter
    (fun c ->
      (try
         send c "quit";
         flush c
       with Unix.Unix_error _ -> ());
      close c)
    [ s.work; s.ops ];
  List.iter stop s.procs

let cpu s = List.fold_left (fun acc p -> acc +. cpu_seconds p) 0. s.procs
let rss_mb s = List.fold_left (fun acc p -> acc +. peak_rss_mb p) 0. s.procs
