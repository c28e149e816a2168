(* Load generator for the admission service.

   e2e-loadgen --requests 2000 --seed 42 -j 4 --out BENCH_serve.json
   e2e-loadgen --connect 127.0.0.1:7070 --requests 500 --connections 4
   e2e-loadgen --self-serve --connections 8 --pipeline 16 --requests 2000
   e2e-loadgen --spawn-shards 2 --connections 4 --duration 10

   Replays a Prng-seeded request stream — submits of fresh task sets,
   permuted resubmissions (canonical-cache exercisers), incremental
   adds, queries and drops — against one target: an in-process Batcher
   (default; measures the engine itself), an embedded concurrent TCP
   server (--self-serve) or N-shard cluster (--spawn-shards) on
   ephemeral ports, or a running e2e-serve or e2e-dispatch (--connect;
   a dispatcher is recognised by its greeting and asked for the cluster
   report).  TCP targets are replayed over --connections parallel
   client domains, each closed-loop with up to --pipeline requests in
   flight (open-loop with exponential arrivals when --rate is set), on
   disjoint per-connection shop namespaces so every connection's reply
   log is deterministic; --duration replays for a wall-clock time
   instead of a request count.  The sweep flags measure one point per
   row of a sweep table.  Reports throughput, latency percentiles and
   the cache hit rate, optionally as a JSON file (`make bench-serve`
   and `make bench-cluster` write BENCH_serve.json and
   BENCH_cluster.json). *)

open Cmdliner
module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Feasible_gen = E2e_workload.Feasible_gen
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Cache = E2e_serve.Cache
module Protocol = E2e_serve.Protocol
module Rtrace = E2e_serve.Rtrace
module Server = E2e_serve.Server
module Stripes = E2e_serve.Stripes
module Listener = E2e_serve.Listener
module Wire = E2e_serve.Wire
module Dispatcher = E2e_cluster.Dispatcher
module Registry = E2e_cluster.Registry
module Health = E2e_cluster.Health
module Pool = E2e_exec.Pool
module Obs = E2e_obs.Obs
module Json = E2e_obs.Json
module Quantile = E2e_obs.Quantile

(* ------------------------------------------------------------------ *)
(* Request-stream generation: a pure function of the seed.            *)

let gen_instance g =
  let n = 3 + Prng.int g 4 and m = 3 + Prng.int g 2 in
  Recurrence_shop.of_traditional
    (Feasible_gen.generate g
       { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5;
         slack_factor = 1.0 +. Prng.float g 1.0 })

(* [cid] derives an independent per-connection stream on a disjoint
   shop namespace ([c<cid>-s<k>] instead of [s<k>]): an admission
   decision reads only its own shop's committed set, so each
   connection's replies are a pure function of its own stream — the
   invariant behind the concurrent transport's per-connection
   determinism checks.  Without [cid] the stream is byte-identical to
   what this generator always produced. *)
let gen_stream ?cid ~seed ~requests () =
  let g, prefix =
    match cid with
    | None -> (Prng.create seed, "s")
    | Some c -> (Prng.of_path [| seed; 0x10ad; c |], Printf.sprintf "c%d-s" c)
  in
  let submitted = ref [] (* (shop, instance), most recent first *) in
  let fresh = ref 0 in
  let fresh_shop () =
    incr fresh;
    Printf.sprintf "%s%d" prefix !fresh
  in
  let pick_shop g =
    match !submitted with
    | [] -> None
    | l -> Some (List.nth l (Prng.int g (List.length l)))
  in
  List.init requests (fun _ ->
      let p = Prng.float g 1.0 in
      if p < 0.40 || !submitted = [] then begin
        let shop = fresh_shop () and instance = gen_instance g in
        submitted := (shop, instance) :: !submitted;
        Admission.Submit { shop; instance }
      end
      else if p < 0.55 then begin
        (* Resubmit a permutation of an earlier set under a new name. *)
        let _, earlier = Option.get (pick_shop g) in
        let shop = fresh_shop () and instance = Feasible_gen.permute g earlier in
        submitted := (shop, instance) :: !submitted;
        Admission.Submit { shop; instance }
      end
      else if p < 0.65 then begin
        (* Exact resubmission under a new name: the common "same client,
           new session" pattern the structural keyer short-circuits. *)
        let _, earlier = Option.get (pick_shop g) in
        let shop = fresh_shop () in
        submitted := (shop, earlier) :: !submitted;
        Admission.Submit { shop; instance = earlier }
      end
      else if p < 0.83 then begin
        let shop, committed = Option.get (pick_shop g) in
        let k = Array.length committed.Recurrence_shop.tasks.(0).Task.proc_times in
        let count = 1 + Prng.int g 2 in
        let tasks =
          List.init count (fun _ ->
              let taus =
                Array.init k (fun _ -> Prng.rat_uniform g ~den:100 (Rat.make 1 2) (Rat.of_int 2))
              in
              let total = Rat.sum_array taus in
              let release = Prng.rat_uniform g ~den:100 Rat.zero (Rat.of_int 4) in
              let window = Rat.mul_int total (2 + Prng.int g 3) in
              (release, Rat.add release window, taus))
        in
        Admission.Add { shop; tasks }
      end
      else if p < 0.95 then
        let shop = match pick_shop g with Some (s, _) -> s | None -> "none" in
        Admission.Query { shop }
      else begin
        let shop = match pick_shop g with Some (s, _) -> s | None -> "none" in
        submitted := List.filter (fun (s, _) -> s <> shop) !submitted;
        Admission.Drop { shop }
      end)

(* The seed-then-resubmit workload of the drainer, shard and upstream
   sweeps: [shops] seeding submits establish this connection's shops,
   then the stream resubmits random shops with freshly permuted
   instances (same canonical form, disjoint per-connection
   namespaces).  A permuted resubmission is answered from the canonical
   solver cache when the shop's entry is resident and pays a full solve
   when it was evicted — so the scaling lever is aggregate cache
   capacity: routing is sticky, each shard's (or stripe's) LRU holds
   exactly its own shops, and a working set a few times one cache's
   [--cache] thrashes a single shard while enough shards hold it
   entirely.  That is the honest sharding win available on any core
   count; CPU fan-out is not (the bench host may be a single core).
   Instances are a little bigger than gen_stream's so the solve :
   cache-hit cost ratio is what the bench exercises. *)
let gen_cluster_instance g =
  let n = 12 + Prng.int g 5 and m = 3 + Prng.int g 2 in
  Recurrence_shop.of_traditional
    (Feasible_gen.generate g
       { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5;
         slack_factor = 1.05 +. Prng.float g 0.3 })

let gen_cluster_stream ~cid ~seed ~shops ~requests () =
  let g = Prng.of_path [| seed; 0xc1; cid |] in
  let shop k = Printf.sprintf "c%d-s%d" cid k in
  let shops = max 1 (min shops requests) in
  let instances = Array.init shops (fun _ -> gen_cluster_instance g) in
  (* Resubmission is a drop + submit pair (a committed shop rejects a
     second bare submit); the fresh submit is the cache probe. *)
  let rec steady n =
    if n <= 0 then []
    else
      let k = Prng.int g shops in
      Admission.Drop { shop = shop k }
      :: Admission.Submit { shop = shop k; instance = Feasible_gen.permute g instances.(k) }
      :: steady (n - 2)
  in
  List.init shops (fun k -> Admission.Submit { shop = shop k; instance = instances.(k) })
  @ steady (requests - shops)

type workload = Mixed | Resubmit of int  (* shops per connection *)

(* Per-connection streams: [requests] split as evenly as possible over
   [connections].  A single mixed connection replays the classic
   unprefixed stream; otherwise each connection gets its own cid
   namespace. *)
let streams ~seed ~connections ~requests workload =
  let split gen =
    List.init connections (fun c ->
        gen c ((requests / connections) + if c < requests mod connections then 1 else 0))
  in
  match workload with
  | Mixed when connections <= 1 -> [ gen_stream ~seed ~requests () ]
  | Mixed -> split (fun cid requests -> gen_stream ~cid ~seed ~requests ())
  | Resubmit shops ->
      split (fun cid requests -> gen_cluster_stream ~cid ~seed ~shops ~requests ())

(* ------------------------------------------------------------------ *)
(* Measurement                                                        *)

type tally = {
  mutable admitted : int;
  mutable rejected : int;
  mutable undecided : int;
  mutable info : int;
  mutable dropped : int;
  mutable errors : int;
  mutable overloaded : int;
}

let new_tally () =
  { admitted = 0; rejected = 0; undecided = 0; info = 0; dropped = 0; errors = 0;
    overloaded = 0 }

let tally_reply t = function
  | Admission.Decided { decision = Admission.Admitted _; _ } -> t.admitted <- t.admitted + 1
  | Admission.Decided { decision = Admission.Rejected _; _ } -> t.rejected <- t.rejected + 1
  | Admission.Decided { decision = Admission.Undecided _; _ } ->
      t.undecided <- t.undecided + 1
  | Admission.Queried _ -> t.info <- t.info + 1
  | Admission.Dropped _ -> t.dropped <- t.dropped + 1
  | Admission.Request_error _ | Admission.Decided { decision = Admission.Failed _; _ } ->
      t.errors <- t.errors + 1

let tally_line t line =
  match String.split_on_char ' ' line with
  | "admitted" :: _ -> t.admitted <- t.admitted + 1
  | "rejected" :: _ -> t.rejected <- t.rejected + 1
  | "undecided" :: _ -> t.undecided <- t.undecided + 1
  | "info" :: _ -> t.info <- t.info + 1
  | "dropped" :: _ -> t.dropped <- t.dropped + 1
  | "overloaded" :: _ -> t.overloaded <- t.overloaded + 1
  | _ -> t.errors <- t.errors + 1

(* The latency sketch and verdict tally a run's client domains share. *)
type meter = { mu : Mutex.t; latency : Quantile.t; tally : tally }

let meter () = { mu = Mutex.create (); latency = Quantile.create (); tally = new_tally () }

let observe m lat line =
  Mutex.protect m.mu (fun () ->
      Quantile.observe m.latency lat;
      tally_line m.tally line)

(* What the cluster run reports beyond throughput: routing balance and
   failover counters, from the in-process dispatcher handle or a
   remote dispatcher's stats/metrics replies. *)
type cluster_info = {
  ci_shards : int;
  ci_live : int;
  ci_routed : int;
  ci_failovers : int;
  ci_unavailable : int;
  ci_balance : (string * int) list;  (* shard id -> requests routed *)
}

let cluster_info_of_stats (st : Dispatcher.stats) =
  {
    ci_shards = st.registry_stats.Registry.shards;
    ci_live = st.registry_stats.Registry.live_shards;
    ci_routed = st.routed;
    ci_failovers = st.registry_stats.Registry.failovers;
    ci_unavailable = st.unavailable;
    ci_balance =
      List.map (fun s -> (s.Dispatcher.shard_id, s.Dispatcher.shard_routed)) st.per_shard;
  }

(* Remote dispatcher: one stats line (k=v tokens) and the aggregated
   metrics exposition (cluster_shard_routed_total{shard="id"} N). *)
let fetch_cluster_remote ~host ~port =
  match Health.rpc ~host ~port [ "stats"; "metrics" ] with
  | Ok [ stats_line; metrics_line ] ->
      let scan fmt line = Scanf.sscanf_opt line fmt (fun k v -> (k, v)) in
      let kv = List.filter_map (scan "%[^=]=%d%!") (String.split_on_char ' ' stats_line) in
      let get k = Option.value ~default:0 (List.assoc_opt k kv) in
      Some
        {
          ci_shards = get "shards";
          ci_live = get "live";
          ci_routed = get "routed";
          ci_failovers = get "failovers";
          ci_unavailable = get "unavailable";
          ci_balance =
            List.filter_map
              (scan "cluster_shard_routed_total{shard=%S} %d%!")
              (String.split_on_char ';' metrics_line);
        }
  | Ok _ | Error _ -> None

let print_cluster_info ci =
  Format.printf "cluster       shards=%d live=%d routed=%d failovers=%d unavailable=%d@."
    ci.ci_shards ci.ci_live ci.ci_routed ci.ci_failovers ci.ci_unavailable;
  List.iter
    (fun (id, n) -> Format.printf "shard         %-22s routed=%d@." id n)
    ci.ci_balance

let balance_json ci = Json.Obj (List.map (fun (id, n) -> (id, Json.int n)) ci.ci_balance)

let cluster_json ci =
  Json.Obj
    [
      ("shards", Json.int ci.ci_shards);
      ("live", Json.int ci.ci_live);
      ("routed", Json.int ci.ci_routed);
      ("failovers", Json.int ci.ci_failovers);
      ("unavailable", Json.int ci.ci_unavailable);
      ("balance", balance_json ci);
    ]

(* What a target reports once its clients are done. *)
type finished = {
  transport : string;
  cache : Cache.stats option;
  keyer : Cache.Keyer.stats option;
  cluster : cluster_info option;
}

(* One replay's measurements; [logs] holds every line each TCP
   connection received, in order: the per-connection reply logs the
   determinism smokes byte-compare. *)
type run = {
  duration : float;
  latency : Quantile.t;
  tally : tally;
  logs : string list list;
  fin : finished;
}

(* In-process replay: open-loop pacing (when [rate] > 0) against the
   batcher; per-request latency = reply time - arrival time, both read
   from [Obs.Clock] so a deterministic source makes the whole
   measurement (and any trace) reproducible. *)
let run_inproc ~stream ~config ~rate =
  let batcher = Batcher.create ~config () in
  let n = List.length stream in
  let t_arrival = Array.make n 0. in
  let latency = Quantile.create () in
  let tally = new_tally () in
  let pending_idx = Queue.create () in
  let record_replies replies =
    List.iter
      (fun (_, tr, reply) ->
        (* The loadgen "renders" nothing, so finish right away — this
           closes the render stage and streams the trace records. *)
        Rtrace.finish tr;
        let i = Queue.pop pending_idx in
        Quantile.observe latency (Obs.Clock.now () -. t_arrival.(i));
        tally_reply tally reply)
      replies
  in
  let t0 = Obs.Clock.now () in
  let next_arrival = ref t0 in
  let pace_g = Prng.create 0x9e3779b9 in
  List.iteri
    (fun i req ->
      if rate > 0. then begin
        (* Open loop: arrivals at exponential spacing, independent of
           service progress. *)
        next_arrival := !next_arrival +. Prng.exponential pace_g ~rate;
        let now = Unix.gettimeofday () in
        if !next_arrival > now then Unix.sleepf (!next_arrival -. now)
      end;
      t_arrival.(i) <- Obs.Clock.now ();
      (match Batcher.submit batcher req with
      | `Queued -> Queue.push i pending_idx
      | `Overloaded -> tally.overloaded <- tally.overloaded + 1);
      if Batcher.pending batcher >= config.Batcher.batch then
        record_replies (Batcher.step batcher))
    stream;
  let rec drain () =
    match Batcher.step batcher with [] -> () | replies -> record_replies replies; drain ()
  in
  drain ();
  {
    duration = Obs.Clock.now () -. t0;
    latency;
    tally;
    logs = [];
    fin =
      { transport = "inproc"; cache = Batcher.cache_stats batcher;
        keyer = Some (Batcher.keyer_stats batcher); cluster = None };
  }

(* ------------------------------------------------------------------ *)
(* The pipelined TCP client                                           *)

let connect ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Listener.resolve_host host, port))
   with e ->
     Unix.close fd;
     raise e);
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  fd

type client = {
  fd : Unix.file_descr;
  r : Wire.reader;
  out : Buffer.t;  (* requests of the current window fill, not yet written *)
  pace : (Prng.t * float) option;  (* open-loop arrivals: generator, rate *)
  mutable next_arrival : float;
  mutable closed : bool;
}

let send c =
  if Buffer.length c.out > 0 then begin
    (try if not c.closed then Wire.write_all c.fd (Buffer.contents c.out)
     with Unix.Unix_error _ -> c.closed <- true);
    Buffer.clear c.out
  end

let recv c =
  if c.closed then None
  else
    match Wire.read_line c.r with
    | `Line l -> Some l
    | `Eof | `Too_long | `Error _ ->
        c.closed <- true;
        None

(* Open loop: the next send waits for its exponential arrival time,
   writing out what is buffered before it sleeps. *)
let pace c =
  match c.pace with
  | None -> ()
  | Some (g, rate) ->
      c.next_arrival <- c.next_arrival +. Prng.exponential g ~rate;
      let now = Unix.gettimeofday () in
      if c.next_arrival > now then begin
        send c;
        Unix.sleepf (c.next_arrival -. now)
      end

(* Windowed pipelined replay of [reqs] over one connection: at most
   [pipeline] requests in flight (also under open-loop pacing, so an
   overloaded server backpressures the client instead of growing an
   unbounded flight set), one write per window fill, [on_reply latency
   line] for every reply in order.  Nothing is sent at or after
   [deadline]; replies already owed are still read.  Returns how many
   requests were left unanswered because the connection closed. *)
let replay c ~pipeline ~deadline ~on_reply reqs =
  let n = Array.length reqs in
  let t_send = Array.make n 0. in
  let sent = ref 0 and recvd = ref 0 and stop = ref false in
  let owed () = if !stop then !sent else n in
  while (not c.closed) && !recvd < owed () do
    while (not !stop) && !sent < n && !sent - !recvd < pipeline do
      if Unix.gettimeofday () >= deadline then stop := true
      else begin
        pace c;
        t_send.(!sent) <- Unix.gettimeofday ();
        Buffer.add_string c.out reqs.(!sent);
        Buffer.add_char c.out '\n';
        incr sent
      end
    done;
    send c;
    if !recvd < !sent then
      Option.iter
        (fun line ->
          on_reply (Unix.gettimeofday () -. t_send.(!recvd)) line;
          incr recvd)
        (recv c)
  done;
  owed () - !recvd

(* One client connection: read the greeting, replay the chunks [next]
   hands out until it returns [None] or [deadline] passes, then [quit]
   and read the farewell.  Every line received goes to [on_line].
   Returns the greeting and, for a connection that failed, what went
   wrong. *)
let client ~host ~port ~pipeline ~pace ~deadline ~on_line ~on_reply next =
  match connect ~host ~port with
  | exception Unix.Unix_error (e, _, _) ->
      (None, Some ("cannot connect: " ^ Unix.error_message e))
  | fd ->
      let c =
        { fd; r = Wire.make_reader fd; out = Buffer.create 4096; pace;
          next_arrival = Unix.gettimeofday (); closed = false }
      in
      let greeting = recv c in
      Option.iter on_line greeting;
      let on_reply lat line =
        on_line line;
        on_reply lat line
      in
      let rec go () =
        if Unix.gettimeofday () >= deadline then 0
        else
          match next () with
          | None -> 0
          | Some reqs -> (
              match replay c ~pipeline ~deadline ~on_reply reqs with 0 -> go () | lost -> lost)
      in
      let lost = go () in
      Buffer.add_string c.out "quit\n";
      send c;
      Option.iter on_line (recv c);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      ( greeting,
        if lost = 0 then None
        else Some (Printf.sprintf "closed with %d requests unanswered" lost) )

(* One client domain per [(next, on_line, on_reply)] source, sharing
   [rate] between them; [while_running] runs in the caller meanwhile.
   Returns the wall-clock duration and the first connection's greeting.
   A failed connection is named on stderr and ends the run (exit 1). *)
let run_clients ~host ~port ~pipeline ~rate ?(deadline = infinity) ?(while_running = ignore)
    sources =
  let pipeline = max 1 pipeline in
  let rate = rate /. float_of_int (List.length sources) in
  let t0 = Unix.gettimeofday () in
  let domains =
    List.mapi
      (fun i (next, on_line, on_reply) ->
        let pace = if rate > 0. then Some (Prng.create (0x9e3779b9 + i), rate) else None in
        Domain.spawn (fun () ->
            client ~host ~port ~pipeline ~pace ~deadline ~on_line ~on_reply next))
      sources
  in
  while_running ();
  let results = List.map Domain.join domains in
  let duration = Unix.gettimeofday () -. t0 in
  List.iteri
    (fun i (_, failure) ->
      Option.iter (Printf.eprintf "e2e-loadgen: connection %d to %s:%d %s\n%!" i host port)
        failure)
    results;
  if List.exists (fun (_, failure) -> failure <> None) results then exit 1;
  (duration, Option.value ~default:"" (fst (List.hd results)))

(* ------------------------------------------------------------------ *)
(* Targets: where the clients connect                                 *)

type target =
  | Inproc
  | Self of int  (* embedded server with this many drainer stripes *)
  | Shards of int * int  (* embedded cluster: shards, upstream lanes per shard *)
  | Remote of string * int

type shard = {
  sh_port : int;
  sh_control : Listener.control;
  sh_domain : unit Domain.t;
}

(* One in-process shard: its own batcher (own admission state, own
   solver cache) behind a real TCP listener on an ephemeral port, with
   a control handle so a test can kill it like a process.  Schedules
   are off — cluster runs measure the service, not reply rendering. *)
let spawn_shard ~config ~accept_pool ~window ?(port = 0) () =
  let control = Listener.control () in
  let stripes = Stripes.create ~config () in
  let sh_port, sh_domain =
    Listener.spawn (fun ~ready ->
        Server.serve_tcp ~schedules:false ~accept_pool ~window ~ready ~control ~port stripes)
  in
  { sh_port; sh_control = control; sh_domain }

type cluster = {
  cl_shards : shard list;
  cl_t : Dispatcher.t;
  cl_domain : unit Domain.t;
  cl_port : int;
}

let spawn_cluster ~nshards ~config ~window ~probe_interval ~client_slots ~upstream_conns =
  (* A shard accept domain owns its connection for the connection's
     lifetime, and every dispatcher lane is a persistent connection: the
     pool must fit all lanes plus a probe and a metrics RPC at once, or
     the overflow lane (and the status checker) starve in the backlog. *)
  let shards =
    List.init nshards (fun _ ->
        spawn_shard ~config ~accept_pool:(max 3 (upstream_conns + 2)) ~window ())
  in
  let dconfig = { Dispatcher.default_config with probe_interval; upstream_conns } in
  let t =
    Dispatcher.create ~config:dconfig (List.map (fun s -> ("127.0.0.1", s.sh_port)) shards)
  in
  let cl_port, cl_domain =
    Listener.spawn (fun ~ready ->
        Dispatcher.serve ~accept_pool:client_slots ~window ~ready ~port:0 t)
  in
  { cl_shards = shards; cl_t = t; cl_domain; cl_port }

(* Joining an already-joined domain returns at once, so this also
   stops a cluster one of whose shards was killed and joined. *)
let stop_cluster c =
  Dispatcher.shutdown c.cl_t;
  Domain.join c.cl_domain;
  List.iter (fun s -> Listener.shutdown s.sh_control) c.cl_shards;
  List.iter (fun s -> Domain.join s.sh_domain) c.cl_shards

(* Start an embedded target for [connections] clients (one reader per
   client connection) and say where to connect; [finish] is called with
   the first client's greeting once the clients are done, stops what
   was started, and collects the target's report.  A remote target is
   a dispatcher when its greeting carries [Dispatcher.version]. *)
let open_target ~config ~window ~connections target =
  let none = { transport = "tcp"; cache = None; keyer = None; cluster = None } in
  match target with
  | Inproc -> invalid_arg "open_target: the in-process engine has no address"
  | Self drainers ->
      let stripes = Stripes.create ~config ~stripes:drainers () in
      let port, domain =
        Listener.spawn (fun ~ready ->
            Server.serve_tcp ~max_connections:connections ~accept_pool:connections ~window
              ~ready ~port:0 stripes)
      in
      ( "127.0.0.1",
        port,
        fun _ ->
          Domain.join domain;
          { none with transport = "self-tcp"; cache = Stripes.cache_stats stripes;
            keyer = Some (Stripes.keyer_stats stripes) } )
  | Shards (nshards, upstream_conns) ->
      let cl =
        spawn_cluster ~nshards ~config ~window ~probe_interval:0.5
          ~client_slots:(connections + 2) ~upstream_conns
      in
      ( "127.0.0.1",
        cl.cl_port,
        fun _ ->
          let info = cluster_info_of_stats (Dispatcher.stats cl.cl_t) in
          stop_cluster cl;
          { none with transport = "cluster-self"; cluster = Some info } )
  | Remote (host, port) ->
      ( host,
        port,
        fun greeting ->
          match String.split_on_char ' ' greeting with
          | v :: _ when v = Dispatcher.version ->
              { none with transport = "cluster"; cluster = fetch_cluster_remote ~host ~port }
          | _ -> none )

(* Replay one stream per connection against [target]. *)
let replay_target ~config ~window ~pipeline ~rate target streams =
  match target with
  | Inproc -> run_inproc ~stream:(List.concat streams) ~config ~rate
  | target ->
      let host, port, finish =
        open_target ~config ~window ~connections:(List.length streams) target
      in
      let m = meter () and logs = List.map (fun _ -> ref []) streams in
      let duration, greeting =
        run_clients ~host ~port ~pipeline ~rate
          (List.map2
             (fun stream log ->
               let pending = ref (Some stream) in
               ( (fun () ->
                   let s = !pending in
                   pending := None;
                   Option.map (fun s -> Array.of_list (List.map Protocol.render_request s)) s),
                 (fun line -> log := line :: !log),
                 observe m ))
             streams logs)
      in
      { duration; latency = m.latency; tally = m.tally;
        logs = List.map (fun log -> List.rev !log) logs; fin = finish greeting }

(* ------------------------------------------------------------------ *)
(* Sweeps: one measured point per row                                 *)

type spec = {
  target : target;
  connections : int;
  batch : int;
  cache : int;  (* solver-cache capacity, per stripe or shard *)
  workload : workload;
}

type point = {
  spec : spec;
  completed : int;
  duration_s : float;
  rps : float;
  p50_ms : float;
  p99_ms : float;
  fin : finished;
}

let rate_of completed duration =
  if duration > 0. then float_of_int completed /. duration else 0.

let hit_rate hits misses =
  let total = hits + misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let measure ~config ~window ~pipeline ~seed ~requests spec =
  let config = { config with Batcher.batch = spec.batch; cache_capacity = spec.cache } in
  let r =
    replay_target ~config ~window ~pipeline ~rate:0. spec.target
      (streams ~seed ~connections:spec.connections ~requests spec.workload)
  in
  let completed = Quantile.count r.latency in
  let p =
    { spec; completed; duration_s = r.duration; rps = rate_of completed r.duration;
      p50_ms = Quantile.quantile r.latency 0.50 *. 1000.;
      p99_ms = Quantile.quantile r.latency 0.99 *. 1000.; fin = r.fin }
  in
  Format.printf "point %-32s %7.0f req/s  p50=%.3fms p99=%.3fms (%d in %.3fs)%s%s@."
    (match spec.target with
    | Inproc -> Printf.sprintf "inproc cache=%d" spec.cache
    | Self d ->
        Printf.sprintf "conns=%d batch=%d drainers=%d%s" spec.connections spec.batch d
          (match spec.workload with Mixed -> "" | Resubmit s -> Printf.sprintf " shops=%d" s)
    | Shards (n, k) -> Printf.sprintf "shards=%d upstream=%d" n k
    | Remote _ -> "remote")
    p.rps p.p50_ms p.p99_ms p.completed p.duration_s
    (match p.fin.cache with
    | Some { Cache.hits; misses; _ } -> Printf.sprintf " hit_rate=%.3f" (hit_rate hits misses)
    | None -> "")
    (match p.fin.cluster with
    | Some ci -> Printf.sprintf " failovers=%d unavailable=%d" ci.ci_failovers ci.ci_unavailable
    | None -> "");
  p

(* The throughput ratio between the points with the smallest and the
   largest [key], printed as "scaling <what> a -> b: r x". *)
let scaling what key points =
  let keys = List.map key points in
  let lo = List.fold_left min max_int keys and hi = List.fold_left max 0 keys in
  let rps k = List.find_map (fun p -> if key p = k then Some p.rps else None) points in
  match (rps lo, rps hi) with
  | Some b, Some t when b > 0. ->
      Format.printf "scaling %s %d -> %d: %.2fx@." what lo hi (t /. b);
      Some (lo, hi, t /. b)
  | _ -> None

let drainers_of p = match p.spec.target with Self d -> d | _ -> 1
let shards_of p = match p.spec.target with Shards (n, _) -> n | _ -> 0
let upstream_of p = match p.spec.target with Shards (_, k) -> k | _ -> 0
let shops_of p = match p.spec.workload with Mixed -> 0 | Resubmit s -> s

let measured_json p =
  [
    ("completed", Json.int p.completed);
    ("duration_s", Json.Num p.duration_s);
    ("requests_per_sec", Json.Num p.rps);
    ("latency_p50_ms", Json.Num p.p50_ms);
    ("latency_p99_ms", Json.Num p.p99_ms);
  ]

let cache_stats_json { Cache.hits; misses; evictions; _ } =
  [
    ("hits", Json.int hits);
    ("misses", Json.int misses);
    ("evictions", Json.int evictions);
  ]

let sat_json p =
  Json.Obj
    ([
       ("connections", Json.int p.spec.connections);
       ("batch", Json.int p.spec.batch);
       ("drainers", Json.int (drainers_of p));
       ( "workload",
         Json.Str (if p.spec.workload = Mixed then "mixed" else "seed-then-resubmit") );
       ("cache_capacity", Json.int p.spec.cache);
       ("shops_per_connection", Json.int (shops_of p));
     ]
    @ measured_json p)

let write_json path record =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string record);
      output_char oc '\n');
  Format.printf "wrote %s@." path

(* The cluster benchmark record (BENCH_cluster.json). *)
let cluster_report ~out ~workload ~points ~upstream =
  let ratio = scaling "shards" shards_of points in
  Option.iter
    (fun path ->
      write_json path
        (Json.Obj
           [
             ("workload", Json.Obj workload);
             ( "points",
               Json.List
                 (List.map
                    (fun p ->
                      let ci = Option.get p.fin.cluster in
                      Json.Obj
                        ((("shards", Json.int (shards_of p)) :: measured_json p)
                        @ [
                            ("failovers", Json.int ci.ci_failovers);
                            ("unavailable", Json.int ci.ci_unavailable);
                            ("balance", balance_json ci);
                          ]))
                    points) );
             ( "scaling",
               match ratio with
               | None -> Json.Null
               | Some (lo, hi, r) ->
                   Json.Obj
                     [
                       ("shards_min", Json.int lo);
                       ("shards_max", Json.int hi);
                       ("rps_ratio", Json.Num r);
                     ] );
             ( "upstream_sweep",
               Json.List
                 (List.map
                    (fun p ->
                      Json.Obj
                        ([
                           ("upstream_conns", Json.int (upstream_of p));
                           ("shards", Json.int (shards_of p));
                           ("connections", Json.int p.spec.connections);
                           ("shops_per_connection", Json.int (shops_of p));
                         ]
                        @ measured_json p))
                    upstream) );
           ]))
    out

(* ------------------------------------------------------------------ *)
(* Failover check: 2 shards + dispatcher, kill one mid-burst, assert
   every in-flight request still gets a reply (the deterministic
   [error shard-unavailable], never a hang), traffic recovers on the
   surviving shard, and a shard returning on the same address is
   re-admitted and routed to again.                                   *)

let failover_check ~config ~window ~seed ~upstream_conns =
  let cluster =
    spawn_cluster ~nshards:2 ~config ~window ~probe_interval:0.2 ~client_slots:3
      ~upstream_conns
  in
  let fail_reasons = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fail_reasons := s :: !fail_reasons) fmt in
  let fd = connect ~host:"127.0.0.1" ~port:cluster.cl_port in
  (* A reply that takes >10s is a hang — the exact bug this check
     exists to catch — so bound every read. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0 with Unix.Unix_error _ -> ());
  let r = Wire.make_reader fd in
  let g = Prng.create seed in
  let fresh = ref 0 in
  let submit_line () =
    incr fresh;
    Protocol.render_request
      (Admission.Submit { shop = Printf.sprintf "f%d" !fresh; instance = gen_instance g })
  in
  let send lines = Wire.write_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines)) in
  let read_replies k =
    List.init k (fun _ ->
        match Wire.read_line r with
        | `Line l -> l
        | `Eof | `Too_long | `Error _ -> "error: connection lost or timed out")
  in
  let unavailable replies =
    List.length (List.filter (fun l -> l = Dispatcher.unavailable_reply) replies)
  in
  let lost replies =
    List.length (List.filter (fun l -> l = "error: connection lost or timed out") replies)
  in
  (match Wire.read_line r with
  | `Line _ -> () (* greeting *)
  | `Eof | `Too_long | `Error _ -> fail "no greeting from dispatcher");
  (* Phase 1: both shards up — a burst of submits, none unavailable. *)
  let burst1 = List.init 16 (fun _ -> submit_line ()) in
  send burst1;
  let replies1 = read_replies 16 in
  if lost replies1 > 0 then fail "phase1: lost %d replies" (lost replies1);
  if unavailable replies1 > 0 then
    fail "phase1: %d shard-unavailable with all shards live" (unavailable replies1);
  (* Phase 2: kill shard 0 with a burst in flight, then keep sending.
     Every request must be answered; the ones caught on the dead shard
     get the deterministic unavailable error.  "In flight" must be
     OBSERVED, not assumed: on one core the scheduler can run the
     whole dispatch-solve-reply chain inside any sleep, after which
     the kill strands nothing, the ring fails over cleanly and the
     check has witnessed no drain.  So arm the kill on the
     dispatcher's own queue-depth stat — a non-zero [shard_pending]
     for the doomed shard is proof it owes replies right now — and if
     a burst was fully answered before the poll saw it, drain the
     replies and try a fresh burst. *)
  let doomed = List.hd cluster.cl_shards in
  let doomed_id = Registry.id_of ~host:"127.0.0.1" ~port:doomed.sh_port in
  let pending_on_doomed () =
    List.fold_left
      (fun acc s ->
        if s.Dispatcher.shard_id = doomed_id then s.Dispatcher.shard_pending else acc)
      0
      (Dispatcher.stats cluster.cl_t).Dispatcher.per_shard
  in
  (* Queue-depth alone is not enough to arm on: [shard_pending] also
     counts requests whose replies already sit unread in the
     dispatcher's kernel buffer, and those are delivered ahead of the
     EOF — the kill would strand nothing.  The airtight witness is
     WORK the shard has not finished computing when the kill lands: a
     burst of 40 medium submits, every one pinned to the doomed shard
     (shop names are burned until the ring homes them there), is tens
     of milliseconds of solving spread over several batches — the
     kill below arrives within a poll tick of the first request being
     routed, so later batches have no reply bytes anywhere and their
     lane drains them as [error shard-unavailable].  Medium instances
     keep each batch bounded to milliseconds: the killed drainer
     finishes at most its current batch, so joining the dead shard's
     domain stays fast (one huge instance instead would pin the join
     on an unbounded solve). *)
  let doomed_submit () =
    let rec pick () =
      incr fresh;
      let shop = Printf.sprintf "f%d" !fresh in
      match Registry.home (Dispatcher.registry cluster.cl_t) shop with
      | Some e when e.Registry.id = doomed_id -> shop
      | _ -> pick ()
    in
    let shop = pick () in
    Protocol.render_request
      (Admission.Submit
         {
           shop;
           instance =
             Recurrence_shop.of_traditional
               (Feasible_gen.generate g
                  { Feasible_gen.n_tasks = 60; n_processors = 3; mean_tau = 1.0;
                    stdev = 0.3; slack_factor = 2.0 });
         })
  in
  let burst = List.init 40 (fun _ -> doomed_submit ()) in
  send burst;
  (* Kill as soon as a good chunk of the burst is visibly pending on
     the doomed shard.  The depth jumps to ~40 when the burst routes
     and drains at batch pace, so it sits above the threshold for
     hundreds of milliseconds — and a depth of 8 leaves plenty of
     genuinely unsolved requests even if a few replies are already in
     flight when the kill lands. *)
  let arm_deadline = Unix.gettimeofday () +. 5.0 in
  while pending_on_doomed () < 8 && Unix.gettimeofday () < arm_deadline do
    Unix.sleepf 0.0002
  done;
  if pending_on_doomed () < 8 then
    fail "phase2: burst never seen pending on the doomed shard";
  Listener.shutdown doomed.sh_control;
  let post_kill = List.init 24 (fun _ -> submit_line ()) in
  send post_kill;
  let replies2 = read_replies (40 + 24) in
  let unavailable2 = unavailable replies2 in
  if lost replies2 > 0 then
    fail "phase2: %d requests never answered after shard kill (hang)" (lost replies2);
  if unavailable2 = 0 then
    fail "phase2: expected at least one shard-unavailable reply after killing a shard";
  (* Phase 3: recovery — fresh shops must admit cleanly on the
     survivor within a bounded number of rounds. *)
  let recovery_rounds = ref (-1) in
  (let round = ref 0 in
   while !recovery_rounds < 0 && !round < 50 do
     incr round;
     let burst = List.init 4 (fun _ -> submit_line ()) in
     send burst;
     let replies = read_replies 4 in
     if lost replies > 0 then begin
       fail "phase3: lost replies during recovery";
       recovery_rounds := !round
     end
     else if unavailable replies = 0 then recovery_rounds := !round
     else Unix.sleepf 0.05
   done;
   if !recovery_rounds < 0 then fail "phase3: no clean round within 50 rounds");
  (* Phase 4: re-admission — restart a shard on the same address, wait
     for the status checker to revive it, and check new shops route to
     it again. *)
  Domain.join doomed.sh_domain;
  let live () =
    List.exists
      (fun (id, state, _) -> id = doomed_id && state = Registry.Live)
      (Registry.snapshot (Dispatcher.registry cluster.cl_t))
  in
  let routed_to id =
    List.fold_left
      (fun acc s -> if s.Dispatcher.shard_id = id then s.Dispatcher.shard_routed else acc)
      0 (Dispatcher.stats cluster.cl_t).per_shard
  in
  let reborn =
    match spawn_shard ~config ~accept_pool:3 ~window ~port:doomed.sh_port () with
    | exception e ->
        fail "phase4: cannot restart the shard on %s: %s" doomed_id (Printexc.to_string e);
        None
    | reborn ->
        let deadline = Unix.gettimeofday () +. 15.0 in
        while (not (live ())) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.05
        done;
        if not (live ()) then fail "phase4: killed shard not revived within 15s of restarting"
        else begin
          let before = routed_to doomed_id in
          send (List.init 24 (fun _ -> submit_line ()));
          let replies = read_replies 24 in
          if lost replies > 0 then fail "phase4: lost replies after revival";
          if unavailable replies > 0 then
            fail "phase4: %d shard-unavailable after revival" (unavailable replies);
          if routed_to doomed_id <= before then
            fail "phase4: no traffic routed to the revived shard"
        end;
        Some reborn
  in
  (try Wire.write_all fd "quit\n" with Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Option.iter
    (fun s ->
      Listener.shutdown s.sh_control;
      Domain.join s.sh_domain)
    reborn;
  stop_cluster cluster;
  match List.rev !fail_reasons with
  | [] ->
      Format.printf
        "failover-check: ok (unavailable=%d recovery_rounds=%d re-admitted=%s)@."
        unavailable2 !recovery_rounds doomed_id;
      true
  | reasons ->
      List.iter (fun r -> Format.printf "failover-check: FAIL %s@." r) reasons;
      false

(* ------------------------------------------------------------------ *)
(* Soak mode: run closed-loop TCP clients for a wall-clock duration,
   printing windowed latency snapshots as the run progresses.  Each
   client replays freshly generated chunks on new shop namespaces
   every cycle, so committed state and cache contents keep churning
   like a long-lived deployment. *)

type soak_snapshot = {
  sn_t : float;  (* seconds since soak start *)
  sn_count : int;
  sn_rps : float;
  sn_p50_ms : float;
  sn_p99_ms : float;
}

let run_soak ~host ~port ~finish ~connections ~pipeline ~seed ~duration ~snapshot_every =
  let m = meter () and window = ref (Quantile.create ()) in
  let observe lat line =
    observe m lat line;
    Mutex.protect m.mu (fun () -> Quantile.observe !window lat)
  in
  (* A fresh chunk per cycle: cid*offset keeps every cycle's shop
     namespace disjoint from every other client's and cycle's. *)
  let chunks cid =
    let cycle = ref 0 in
    fun () ->
      let stream = gen_stream ~cid:((cid * 1_000_003) + !cycle) ~seed ~requests:256 () in
      incr cycle;
      Some (Array.of_list (List.map Protocol.render_request stream))
  in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. duration in
  let snapshots = ref [] in
  (* Each snapshot covers the window since the previous one, however
     long it turned out to be: the last is cut short by the deadline. *)
  let take_snapshot since =
    let q = Mutex.protect m.mu (fun () -> let q = !window in window := Quantile.create (); q) in
    let now = Unix.gettimeofday () in
    let count = Quantile.count q in
    let sn =
      { sn_t = now -. t0; sn_count = count; sn_rps = rate_of count (now -. since);
        sn_p50_ms = Quantile.quantile q 0.50 *. 1000.;
        sn_p99_ms = Quantile.quantile q 0.99 *. 1000. }
    in
    snapshots := sn :: !snapshots;
    Format.printf "soak +%6.1fs  %6d replies (%6.0f/s)  p50=%.3fms p99=%.3fms@." sn.sn_t
      sn.sn_count sn.sn_rps sn.sn_p50_ms sn.sn_p99_ms;
    now
  in
  let rec snapshot_loop since =
    if Unix.gettimeofday () < deadline then begin
      Unix.sleepf (Float.min snapshot_every (deadline -. Unix.gettimeofday ()));
      snapshot_loop (take_snapshot since)
    end
  in
  let duration, greeting =
    run_clients ~host ~port ~pipeline ~rate:0. ~deadline
      ~while_running:(fun () -> snapshot_loop t0)
      (List.init connections (fun cid -> (chunks cid, ignore, observe)))
  in
  ( { duration; latency = m.latency; tally = m.tally; logs = []; fin = finish greeting },
    List.rev !snapshots )

let soak_snapshot_json sn =
  Json.Obj
    [
      ("t_s", Json.Num sn.sn_t);
      ("count", Json.int sn.sn_count);
      ("requests_per_sec", Json.Num sn.sn_rps);
      ("latency_p50_ms", Json.Num sn.sn_p50_ms);
      ("latency_p99_ms", Json.Num sn.sn_p99_ms);
    ]

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)

let report ?(extra = []) ~out ~requests ~jobs ~config ~connections ~stages ~cache_sweep ~sat
    (r : run) =
  let ms x = x *. 1000. in
  let p q = ms (Quantile.quantile r.latency q) in
  let completed = Quantile.count r.latency in
  let rps = rate_of completed r.duration in
  let tally = r.tally in
  Option.iter print_cluster_info r.fin.cluster;
  Format.printf "requests      %d (%d completed, %d overloaded)@." requests completed
    tally.overloaded;
  Format.printf "duration      %.3fs  (%.0f requests/s)@." r.duration rps;
  Format.printf "latency (ms)  p50=%.3f p95=%.3f p99=%.3f max=%.3f@." (p 0.50) (p 0.95)
    (p 0.99)
    (ms (Quantile.max_value r.latency));
  List.iter
    (fun (stage, q) ->
      Format.printf "stage %-13s p50=%.3f p95=%.3f p99=%.3f max=%.3f@."
        (stage ^ " (ms)")
        (ms (Quantile.quantile q 0.50))
        (ms (Quantile.quantile q 0.95))
        (ms (Quantile.quantile q 0.99))
        (ms (Quantile.max_value q)))
    stages;
  Format.printf "verdicts      admitted=%d rejected=%d undecided=%d info=%d dropped=%d \
                 errors=%d@."
    tally.admitted tally.rejected tally.undecided tally.info tally.dropped tally.errors;
  (match r.fin.cache with
  | None -> Format.printf "cache         off or remote@."
  | Some { Cache.hits; misses; evictions; size } ->
      Format.printf "cache         hits=%d misses=%d evictions=%d size=%d hit_rate=%.3f@."
        hits misses evictions size (hit_rate hits misses));
  Option.iter
    (fun { Cache.Keyer.reused; rendered } ->
      Format.printf "keyer         reused=%d rendered=%d@." reused rendered)
    r.fin.keyer;
  let quantiles q =
    [
      ("p50", Json.Num (ms (Quantile.quantile q 0.50)));
      ("p95", Json.Num (ms (Quantile.quantile q 0.95)));
      ("p99", Json.Num (ms (Quantile.quantile q 0.99)));
      ("max", Json.Num (ms (Quantile.max_value q)));
    ]
  in
  Option.iter
    (fun path ->
      write_json path
        (Json.Obj
           ([
              ("requests", Json.int requests);
              ("completed", Json.int completed);
              ("overloaded", Json.int tally.overloaded);
              ("duration_s", Json.Num r.duration);
              ("requests_per_sec", Json.Num rps);
              ("latency_ms", Json.Obj (quantiles r.latency));
              ( "stage_latency_ms",
                Json.Obj
                  (List.map
                     (fun (stage, q) ->
                       let count = ("count", Json.int (Quantile.count q)) in
                       (stage, Json.Obj (quantiles q @ [ count ])))
                     stages) );
              ( "verdicts",
                Json.Obj
                  [
                    ("admitted", Json.int tally.admitted);
                    ("rejected", Json.int tally.rejected);
                    ("undecided", Json.int tally.undecided);
                    ("info", Json.int tally.info);
                    ("dropped", Json.int tally.dropped);
                    ("errors", Json.int tally.errors);
                  ] );
              ( "cache",
                match r.fin.cache with
                | None -> Json.Null
                | Some ({ Cache.hits; misses; size; _ } as s) ->
                    Json.Obj
                      (cache_stats_json s
                      @ [
                          ("size", Json.int size);
                          ("hit_rate", Json.Num (hit_rate hits misses));
                        ])
              );
              ( "keyer",
                match r.fin.keyer with
                | None -> Json.Null
                | Some { Cache.Keyer.reused; rendered } ->
                    Json.Obj [ ("reused", Json.int reused); ("rendered", Json.int rendered) ] );
              ( "cache_sweep",
                Json.List
                  (List.filter_map
                     (fun p ->
                       Option.map
                         (fun ({ Cache.hits; misses; _ } as s) ->
                           Json.Obj
                             ((("capacity", Json.int p.spec.cache) :: cache_stats_json s)
                             @ [ ("hit_rate", Json.Num (hit_rate hits misses)) ]))
                         p.fin.cache)
                     cache_sweep) );
              ("saturation_sweep", Json.List (List.map sat_json sat));
              ( "config",
                Json.Obj
                  [
                    ("transport", Json.Str r.fin.transport);
                    ("connections", Json.int connections);
                    ("jobs", Json.int jobs);
                    ("batch", Json.int config.Batcher.batch);
                    ("queue", Json.int config.Batcher.queue_capacity);
                    ("cache_capacity", Json.int config.Batcher.cache_capacity);
                  ] );
            ]
           @ extra
           @ Option.to_list
               (Option.map (fun ci -> ("cluster", cluster_json ci)) r.fin.cluster))))
    out

(* ------------------------------------------------------------------ *)

let requests_arg =
  let doc = "Number of requests in the stream." in
  Arg.(value & opt int 1000 & info [ "requests" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Stream seed: the request sequence is a pure function of it." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let rate_arg =
  let doc =
    "Open-loop arrival rate in requests/second (exponential inter-arrivals); 0 replays as \
     fast as possible."
  in
  Arg.(value & opt float 0. & info [ "rate" ] ~docv:"R" ~doc)

let jobs_arg =
  let doc = "Worker domains for the in-process engine's batch solves." in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let batch_arg =
  let doc = "Batch size of the in-process engine." in
  Arg.(value & opt int Batcher.default_config.Batcher.batch & info [ "batch" ] ~docv:"N" ~doc)

let queue_arg =
  let doc = "Queue bound of the in-process engine." in
  Arg.(value & opt int Batcher.default_config.Batcher.queue_capacity
       & info [ "queue" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Solver-cache capacity of the in-process engine (0 = off)." in
  Arg.(value & opt int Batcher.default_config.Batcher.cache_capacity
       & info [ "cache"; "cache-capacity" ] ~docv:"N" ~doc)

let sweep_arg =
  let doc =
    "Replay the same stream once per capacity in the comma-separated list and record each \
     run's cache statistics alongside the main run (in-process only)."
  in
  Arg.(value & opt (some (list int)) None & info [ "cache-sweep" ] ~docv:"N,N,..." ~doc)

let connect_arg =
  let doc =
    "Replay over TCP against a running e2e-serve or e2e-dispatch at $(docv) instead of \
     in-process.  A dispatcher is recognised by its greeting and, after the run, queried \
     for routing balance and failover counters (the cluster report)."
  in
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)

let self_serve_arg =
  let doc =
    "Start the concurrent TCP server in-process on an ephemeral port and replay against it \
     over real sockets: the whole-transport measurement (engine config flags apply to the \
     embedded server, which runs one reader per client connection)."
  in
  Arg.(value & flag & info [ "self-serve" ] ~doc)

let connections_arg =
  let doc =
    "Parallel client connections for the TCP modes; each replays an independent stream on a \
     disjoint shop namespace (a single connection replays the classic stream)."
  in
  Arg.(value & opt int 1 & info [ "connections" ] ~docv:"C" ~doc)

let pipeline_arg =
  let doc = "Requests each client keeps in flight (the closed-loop pipelining window)." in
  Arg.(value & opt int 8 & info [ "pipeline" ] ~docv:"W" ~doc)

let window_arg =
  let doc = "Per-connection reply window of the embedded servers." in
  Arg.(value & opt int 64 & info [ "window" ] ~docv:"N" ~doc)

let drainers_arg =
  let doc =
    "Drainer stripes of the embedded --self-serve server (the queue is sharded by shop; \
     one drainer domain per stripe).  Per-connection reply logs are byte-identical at \
     every value."
  in
  Arg.(value & opt int 1 & info [ "drainers" ] ~docv:"N" ~doc)

let drainer_sweep_arg =
  let doc =
    "Drainer-stripe scaling sweep: one embedded-server run of the seed-then-resubmit \
     workload (--cluster-shops shops per connection, --cache per-stripe capacity) per \
     stripe count in the comma-separated list, recorded alongside saturation_sweep in the \
     JSON report."
  in
  Arg.(value & opt (some (list int)) None & info [ "drainer-sweep" ] ~docv:"D,D,..." ~doc)

let upstream_sweep_arg =
  let doc =
    "Upstream-lane scaling sweep (cluster bench): a fresh 1-shard cluster per lane count \
     in the comma-separated list on a cache-resident workload, recorded as upstream_sweep \
     in the cluster JSON report.  Combine with --cluster-sweep to write both curves."
  in
  Arg.(value & opt (some (list int)) None & info [ "upstream-sweep" ] ~docv:"K,K,..." ~doc)

let upstream_conns_arg =
  let doc = "Pipelined upstream connections per shard of the in-process dispatcher modes." in
  Arg.(value & opt int 1 & info [ "upstream-conns" ] ~docv:"K" ~doc)

let reply_log_arg =
  let doc =
    "Write each connection's received lines to $(docv).conn<k> (TCP modes) — the \
     per-connection determinism artifacts `make check` byte-compares across -j values."
  in
  Arg.(value & opt (some string) None & info [ "reply-log" ] ~docv:"PREFIX" ~doc)

let sat_conns_arg =
  let doc =
    "Saturation sweep: measure --self-serve throughput at each connection count in the \
     comma-separated list (crossed with --sat-batch), recorded as saturation_sweep in the \
     JSON report."
  in
  Arg.(value & opt (some (list int)) None & info [ "sat-connections" ] ~docv:"C,C,..." ~doc)

let sat_batch_arg =
  let doc = "Batch sizes the saturation sweep crosses with --sat-connections." in
  Arg.(value & opt (some (list int)) None & info [ "sat-batch" ] ~docv:"B,B,..." ~doc)

let out_arg =
  let doc = "Write the run summary as one JSON object to $(docv)." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Write one JSONL request-trace record per pipeline stage per request to $(docv) \
     (analyse with e2e-trace; in-process replay only)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let det_clock_arg =
  let doc =
    "Replace the wall clock with a deterministic counter (one tick of 1/1024 s per \
     reading): timings stop measuring real time but the trace, the latency report and the \
     stage percentiles become exact functions of the request stream — byte-identical at \
     every -j.  Implies --rate 0 semantics for timing."
  in
  Arg.(value & flag & info [ "det-clock" ] ~doc)

let spawn_shards_arg =
  let doc =
    "Start $(docv) in-process shards (each a full TCP e2e-serve) behind an in-process \
     dispatcher on ephemeral ports and replay against the dispatcher: the whole-cluster \
     measurement (engine config flags apply to every shard)."
  in
  Arg.(value & opt (some int) None & info [ "spawn-shards" ] ~docv:"N" ~doc)

let cluster_sweep_arg =
  let doc =
    "Shard-count scaling sweep: spin up a fresh cluster per count in the comma-separated \
     list, replay the seed-then-resubmit workload, and record throughput, balance and \
     failover counters per point (`make bench-cluster` writes BENCH_cluster.json this \
     way)."
  in
  Arg.(value & opt (some (list int)) None & info [ "cluster-sweep" ] ~docv:"N,N,..." ~doc)

let cluster_shops_arg =
  let doc =
    "Shops each connection seeds before resubmitting in the seed-then-resubmit workload of \
     the drainer and shard sweeps."
  in
  Arg.(value & opt int 8 & info [ "cluster-shops" ] ~docv:"K" ~doc)

let duration_arg =
  let doc =
    "Soak mode: run the TCP replay closed-loop for $(docv) seconds of wall-clock time \
     (freshly generated request chunks per connection) instead of a fixed request count, \
     printing windowed latency snapshots as it runs."
  in
  Arg.(value & opt float 0. & info [ "duration" ] ~docv:"SECS" ~doc)

let snapshot_arg =
  let doc = "Seconds between soak-mode latency snapshots." in
  Arg.(value & opt float 1.0 & info [ "snapshot" ] ~docv:"SECS" ~doc)

let failover_arg =
  let doc =
    "Run the cluster failover check: 2 in-process shards behind a dispatcher, kill one \
     mid-burst, assert every request is answered (deterministic shard-unavailable errors, \
     no hangs), traffic recovers on the survivor, and a restarted shard is re-admitted.  \
     Exits non-zero on failure."
  in
  Arg.(value & flag & info [ "failover-check" ] ~doc)

(* Stage sketches accumulated by Rtrace.finish during the main run, in
   pipeline order, with the end-to-end sketch last.  Captured before the
   sweep replays so their observations don't pollute the report. *)
let capture_stages () =
  let sk = Obs.sketches () in
  let find name = List.assoc_opt name sk in
  List.filter_map
    (fun stage -> Option.map (fun q -> (stage, q)) (find ("serve.stage." ^ stage)))
    (Array.to_list Rtrace.stages)
  @ (match find "serve.e2e" with Some q -> [ ("e2e", q) ] | None -> [])

let run requests seed rate jobs batch queue cache cache_sweep connect self_serve connections
    pipeline window drainers drainer_sweep upstream_sweep upstream_conns reply_log sat_conns
    sat_batch out trace det_clock spawn_shards cluster_sweep cluster_shops duration snapshot
    failover =
  let usage msg =
    prerr_endline ("e2e-loadgen: " ^ msg);
    exit 2
  in
  let jobs = Pool.resolve_jobs jobs in
  let config =
    { Batcher.queue_capacity = queue; batch; budget = Admission.Unbounded; jobs;
      cache_capacity = cache }
  in
  (* A server that goes away mid-run surfaces as a write error on its
     connection, not a fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if connections < 1 then usage "--connections must be >= 1";
  if drainers < 1 then usage "--drainers must be >= 1";
  if upstream_conns < 1 then usage "--upstream-conns must be >= 1";
  let target =
    match (connect, self_serve, spawn_shards) with
    | None, false, None -> Inproc
    | None, true, None -> Self drainers
    | None, false, Some n -> Shards (max 1 n, upstream_conns)
    | Some addr, false, None -> (
        match Registry.parse_id addr with
        | Some (host, port) -> Remote (host, port)
        | None -> usage (Printf.sprintf "--connect expects HOST:PORT (got %S)" addr))
    | _ -> usage "--connect, --self-serve and --spawn-shards are mutually exclusive"
  in
  let tcp = target <> Inproc in
  (* The sweep table: every row is a target plus a workload, built from
     the same flags as the main run. *)
  let base = { target = Self 1; connections; batch; cache; workload = Resubmit cluster_shops } in
  let rows flag f = List.map f (Option.value ~default:[] flag) in
  let cache_rows =
    rows cache_sweep (fun cache ->
        { base with target = Inproc; connections = 1; cache; workload = Mixed })
  in
  let sat_rows =
    List.concat_map
      (fun c ->
        List.map
          (fun b -> { base with connections = c; batch = b; workload = Mixed })
          (Option.value ~default:[ batch ] sat_batch))
      (Option.value ~default:[] sat_conns)
  in
  let drainer_rows = rows drainer_sweep (fun d -> { base with target = Self d }) in
  let shard_rows = rows cluster_sweep (fun n -> { base with target = Shards (n, 1) }) in
  (* Shops per connection sized to keep the whole working set resident
     in the single shard's cache: every resubmission is a cache hit. *)
  let upstream_rows =
    rows upstream_sweep (fun k ->
        let shops = max 1 (cache / (2 * max 1 connections)) in
        { base with target = Shards (1, k); workload = Resubmit shops })
  in
  let sweeping = cluster_sweep <> None || upstream_sweep <> None in
  if tcp && (failover || sweeping || cache_rows @ sat_rows @ drainer_rows <> []) then
    usage "the sweeps and --failover-check start their own targets";
  if (not tcp) && (reply_log <> None || duration > 0.) then
    usage "--reply-log and --duration require a TCP target";
  if tcp && trace <> None then
    usage "--trace requires the in-process engine (no --connect/--self-serve/--spawn-shards)";
  if failover then
    exit (if failover_check ~config ~window ~seed ~upstream_conns then 0 else 1);
  let measure = measure ~config ~window ~pipeline ~seed ~requests in
  if sweeping then begin
    let points = List.map measure shard_rows in
    let upstream = List.map measure upstream_rows in
    cluster_report ~out ~points ~upstream
      ~workload:
        [
          ("type", Json.Str "seed-then-resubmit");
          ("requests", Json.int requests);
          ("connections", Json.int connections);
          ("pipeline", Json.int pipeline);
          ("shops_per_connection", Json.int cluster_shops);
          ("seed", Json.int seed);
          ("cache_capacity", Json.int cache);
          ("batch", Json.int batch);
          ("jobs", Json.int jobs);
        ];
    exit 0
  end;
  if duration > 0. then begin
    let host, port, finish = open_target ~config ~window ~connections target in
    let r, snapshots =
      run_soak ~host ~port ~finish ~connections ~pipeline ~seed ~duration
        ~snapshot_every:snapshot
    in
    report ~out ~requests:(Quantile.count r.latency) ~jobs ~config ~connections ~stages:[]
      ~cache_sweep:[] ~sat:[] r
      ~extra:[ ("soak_snapshots", Json.List (List.map soak_snapshot_json snapshots)) ];
    exit 0
  end;
  if det_clock then begin
    (* Dyadic step: every reading is an exact float, so durations and
       their sums are exact and the trace is byte-reproducible. *)
    let k = ref 0 in
    Obs.Clock.set_source (fun () ->
        incr k;
        float_of_int !k *. (1. /. 1024.))
  end;
  (* Telemetry passes: a traced or deterministic-clock run is
     instrumented throughout (the stage histograms are its point); a
     plain benchmark run measures with the registry off — the
     transport's real configuration — and, when a JSON report is
     requested, replays once more instrumented to attribute stage
     costs. *)
  let instrumented = (trace <> None || det_clock) && not tcp in
  if instrumented then begin
    Obs.set_stats true;
    Obs.reset_metrics ()
  end;
  let trace_oc =
    Option.map
      (fun path ->
        let oc = Out_channel.open_text path in
        Rtrace.set_writer
          (Some
             (fun line ->
               Out_channel.output_string oc line;
               Out_channel.output_char oc '\n'));
        (path, oc))
      trace
  in
  let connections = if tcp then connections else 1 in
  let main_streams = streams ~seed ~connections ~requests Mixed in
  let r = replay_target ~config ~window ~pipeline ~rate target main_streams in
  Option.iter
    (fun prefix ->
      List.iteri
        (fun i log ->
          Out_channel.with_open_text
            (Printf.sprintf "%s.conn%d" prefix i)
            (fun oc -> List.iter (fun line -> output_string oc (line ^ "\n")) log))
        r.logs)
    reply_log;
  Option.iter
    (fun (path, oc) ->
      Rtrace.set_writer None;
      Out_channel.close oc;
      Format.printf "wrote %s@." path)
    trace_oc;
  let stages =
    if instrumented then capture_stages ()
    else if out <> None && not tcp then begin
      (* Second, instrumented pass purely for the stage attribution in
         the JSON report; the headline duration stays the
         uninstrumented run's. *)
      Obs.set_stats true;
      Obs.reset_metrics ();
      ignore (run_inproc ~stream:(List.hd main_streams) ~config ~rate:0.);
      capture_stages ()
    end
    else []
  in
  let cache_sweep = List.map measure cache_rows in
  (* The transport sweeps measure at the native configuration: registry
     off, like the headline pass. *)
  Obs.set_stats false;
  let sat = List.map measure sat_rows in
  let drainer_points = List.map measure drainer_rows in
  ignore (scaling "drainers" drainers_of drainer_points);
  report ~out ~requests ~jobs ~config ~connections ~stages ~cache_sweep
    ~sat:(sat @ drainer_points) r

let () =
  let doc = "Load generator for the e2e-serve admission service" in
  let info = Cmd.info "e2e-loadgen" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const run $ requests_arg $ seed_arg $ rate_arg $ jobs_arg $ batch_arg $ queue_arg
      $ cache_arg $ sweep_arg $ connect_arg $ self_serve_arg $ connections_arg
      $ pipeline_arg $ window_arg $ drainers_arg $ drainer_sweep_arg $ upstream_sweep_arg
      $ upstream_conns_arg $ reply_log_arg $ sat_conns_arg $ sat_batch_arg $ out_arg
      $ trace_arg $ det_clock_arg $ spawn_shards_arg $ cluster_sweep_arg $ cluster_shops_arg
      $ duration_arg $ snapshot_arg $ failover_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
