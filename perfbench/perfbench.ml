(* End-to-end benchmark of the online admission service.

     perfbench.exe run --workload mixed --seed 1 --seconds 10 --trace 0
     perfbench.exe selftest

   [--trace 0] starts the real e2e-serve / e2e-dispatch binaries and
   drives them from this single-threaded process over two connections:
   a paced (open-loop) phase timed from each request's due time, with an
   operator connection scraping [metrics], then a closed-loop capacity
   phase.  Every reply is checked against the in-process reference reply
   log.  [--trace 1] instead replays the same stream in-process through
   the layers' public functions and reports the per-layer split.  The
   last line of standard output is the result object. *)

module Json = E2e_obs.Json
module Protocol = E2e_serve.Protocol
module Cache = E2e_serve.Cache

type workload = {
  name : string;
  topology : [ `Single | `Cluster of int ];
  stream : seed:int -> n:int -> Gen.stream;
  pace_rate : float;  (** Paced-phase rate, requests/s. *)
  capacity_requests_per_s : float;
      (** Sizes the capacity phase: requests per second of [--seconds]. *)
  window : int;  (** Requests in flight in the closed-loop phases. *)
  scrapes : int;
      (** Operator scrapes per paced phase: at least 200, so the p95
          scrape latency has at least ten samples beyond it; more where
          a scrape is cheap enough for the operator to keep the cadence. *)
  check_schedules : bool;
}

let workloads =
  [
    { name = "mixed"; topology = `Single; stream = (fun ~seed ~n -> Gen.mixed ~seed ~n);
      pace_rate = 200.; capacity_requests_per_s = 4000.; window = 16; scrapes = 220;
      check_schedules = false };
    { name = "resubmit"; topology = `Cluster 2;
      stream = (fun ~seed ~n -> Gen.resubmit ~seed ~shops:1024 ~n);
      pace_rate = 1000.; capacity_requests_per_s = 3000.; window = 16; scrapes = 480;
      check_schedules = false };
    { name = "grow"; topology = `Single;
      stream = (fun ~seed ~n -> Gen.grow ~seed ~shops:4 ~size:200 ~reset_every:50 ~n);
      pace_rate = 150.; capacity_requests_per_s = 250.; window = 16; scrapes = 960;
      check_schedules = true };
  ]

let setups = 5

(* Capacity-phase chunks. *)
let rounds = 5

(* A paced phase whose generator sent later than this (p99) fell behind
   its schedule: it is reported as invalid in the run record. *)
let max_lateness = 0.010
let out_dir = ".bench_out"

(* Phase sizes: the paced phase lasts half of [seconds] at the workload's
   rate; the capacity phase is a fixed request count, sized to take about
   the other half at the capacity measured on a 2-vCPU VM, so every run of
   a seed serves exactly the same requests. *)
let sizes wl ~seconds =
  let half = float_of_int seconds /. 2. in
  let n_paced = int_of_float (wl.pace_rate *. half) in
  let n_capacity = int_of_float (wl.capacity_requests_per_s *. half) in
  (n_paced, n_capacity)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile of an unsorted sample. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1 |> max 0))

let metric name value unit = (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ])

let result ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct); ("attempted", Json.int attempted); ("failed", Json.int failed);
      ("metrics", Json.Obj metrics) ]

(* What the run was measured on.  The checkout may not be a git
   repository, so the commit is read from .git when present and the
   served sources are identified by a digest either way. *)
let commit () =
  try
    let head = String.trim (Client.read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      String.trim (Client.read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
    else head
  with Sys_error _ -> "unknown"

let source_digest () =
  let files = ref [] in
  let rec walk dir =
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then files := p :: !files)
      (Sys.readdir dir)
  in
  List.iter walk [ "lib"; "bin" ];
  let files = List.sort compare !files in
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun f -> Digest.file f) files)))

let nproc () =
  let s = Client.read_file "/proc/cpuinfo" in
  List.length
    (List.filter (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor") (String.split_on_char '\n' s))

let server_flags wl =
  match wl.topology with
  | `Single -> "e2e-serve --tcp 0"
  | `Cluster k -> Printf.sprintf "e2e-dispatch --port 0 --shards <%d x e2e-serve --tcp 0>" k

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics against the real binaries             *)

(* The requests of one run, seeding prefix first, and their lines. *)
let build_stream wl ~seed ~seconds =
  let n_paced, n_capacity = sizes wl ~seconds in
  let stream = wl.stream ~seed ~n:(n_paced + n_capacity) in
  let reqs = Array.append stream.seed_reqs stream.body in
  (n_paced, n_capacity, Array.length stream.seed_reqs, reqs, Array.map Protocol.render_request reqs)

let run_e2e ~bin wl ~seed ~seconds =
  let n_paced, n_capacity, n_seed, reqs, lines = build_stream wl ~seed ~seconds in
  let n = Array.length lines in
  (* Set up [setups] times from scratch; keep the last session. *)
  let rec set_up k acc =
    let t0 = Client.now () in
    let s = Load.setup ~bin ~dir:out_dir ~topology:wl.topology ~lines ~n_seed ~window:wl.window in
    let dt = Client.now () -. t0 in
    if k = 1 then (s, dt :: acc)
    else begin
      Load.teardown s;
      set_up (k - 1) (dt :: acc)
    end
  in
  let s, setup_times = set_up setups [] in
  let seeded = s.recvd = n_seed in
  (* The paced phase, then the capacity phase in [rounds] chunks: the
     median chunk discounts a slow spell of the host. *)
  let lo = s.sent in
  let h0 = Client.host_ticks () in
  let p =
    Load.paced_loop s ~hi:(lo + n_paced) ~rate:wl.pace_rate
      ~scrape_every:(float_of_int seconds /. 2. /. float_of_int wl.scrapes)
  in
  let h1 = Client.host_ticks () in
  let latency = Array.init (min (s.recvd - lo) n_paced) (fun i -> s.recv_at.(lo + i) -. p.due.(i)) in
  let cap_rps = ref [] and cap_cpu = ref [] in
  for r = 0 to rounds - 1 do
    let cap_lo = s.sent in
    let cpu0 = Load.cpu s and t0 = Client.now () in
    Load.closed_loop s ~hi:(cap_lo + ((n_capacity * (r + 1) / rounds) - (n_capacity * r / rounds))) ~window:wl.window;
    let t1 = Client.now () and cpu1 = Load.cpu s in
    let done_ = s.recvd - cap_lo in
    cap_rps := (float_of_int done_ /. (t1 -. t0)) :: !cap_rps;
    cap_cpu := ((cpu1 -. cpu0) /. float_of_int (max 1 done_) *. 1e6) :: !cap_cpu
  done;
  let h2 = Client.host_ticks () in
  let scrapes = Array.of_list p.scrapes and late = p.late in
  let share (s0, t0) (s1, t1) = if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0. in
  let rss = Load.rss_mb s in
  Load.teardown s;
  (* The correctness gate. *)
  let reference = Reference.compute ~check_schedules:wl.check_schedules reqs in
  let mismatches = ref 0 in
  for i = 0 to s.recvd - 1 do
    if s.digests.(i) <> reference.digests.(i) then incr mismatches
  done;
  let missing = n - s.recvd in
  let failed = missing + !mismatches + s.refused + reference.schedule_failures in
  let lateness_p99 = quantile late 0.99 in
  let paced_valid = lateness_p99 < max_lateness in
  let correct = seeded && failed = 0 in
  let timed value unit samples =
    Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit); ("samples", Json.int samples) ]
  in
  let run_record =
    Json.Obj
    [ ("workload", Json.Str wl.name); ("seed", Json.int seed); ("seconds", Json.int seconds);
      ("commit", Json.Str (commit ())); ("source_digest", Json.Str (source_digest ()));
      ("ocaml", Json.Str Sys.ocaml_version); ("nproc", Json.int (nproc ()));
      ("server_flags", Json.Str (server_flags wl));
      ("requests", Json.Obj [ ("seeding", Json.int n_seed); ("paced", Json.int n_paced); ("capacity", Json.int n_capacity) ]);
      ("paced_rate_per_s", Json.Num wl.pace_rate);
      (* Wall-clock figures move with the host's CPU steal far more than
         any allowed bound: recorded with their sample counts, not gated. *)
      ( "wall_clock",
        Json.Obj
          [ ("capacity_rps", timed (median !cap_rps) "1/s" rounds);
            ("p50_ms", timed (quantile latency 0.50 *. 1000.) "ms" (Array.length latency));
            ("p99_ms", timed (quantile latency 0.99 *. 1000.) "ms" (Array.length latency));
            ("scrape_p95_ms", timed (quantile scrapes 0.95 *. 1000.) "ms" (Array.length scrapes)) ] );
      ("steal_share", Json.Obj [ ("paced", Json.Num (share h0 h1)); ("capacity", Json.Num (share h1 h2)) ]);
      ("generator_lateness_p99_ms", Json.Num (lateness_p99 *. 1000.));
      ("paced_valid", Json.Bool paced_valid);
      ("capacity_rps_each", Json.List (List.rev_map (fun x -> Json.Num x) !cap_rps));
      ("cpu_us_per_req_each", Json.List (List.rev_map (fun x -> Json.Num x) !cap_cpu));
      ("setup_s_each", Json.List (List.map (fun x -> Json.Num x) setup_times));
      ("replies", Json.Obj [ ("received", Json.int s.recvd); ("missing", Json.int missing); ("mismatched", Json.int !mismatches); ("refused", Json.int s.refused) ]);
      ("schedule_checks", Json.Obj [ ("checked", Json.int reference.schedule_checks); ("failed", Json.int reference.schedule_failures) ]) ]
  in
  let decided = max 1 s.decided in
  ( run_record,
    result ~correct ~attempted:n ~failed
    [ metric "cpu_us_per_req" (median !cap_cpu) "us";
      metric "ok_share" (1. -. (float_of_int failed /. float_of_int n)) "share";
      metric "admit_share" (float_of_int s.admitted /. float_of_int decided) "share";
      metric "setup_s" (median setup_times) "s";
      metric "server_rss_mb" rss "MiB" ] )

(* ------------------------------------------------------------------ *)
(* --trace 1: the per-layer split from the in-process traced replay    *)

let layer_metrics () =
  List.concat_map
    (fun op ->
      let d = Array.of_list Layers.samples.(Layers.op_index op) in
      [ metric (op ^ ".calls") (float_of_int (Array.length d)) "count";
        metric (op ^ ".busy_ms") (Array.fold_left ( +. ) 0. d *. 1000.) "ms";
        metric (op ^ ".p50_us") (quantile d 0.50 *. 1e6) "us";
        metric (op ^ ".p99_us") (quantile d 0.99 *. 1e6) "us" ])
    (Array.to_list Layers.ops)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let run_trace ~bin wl ~seed ~seconds =
  Layers.reset ();
  let n_paced, _, n_seed, reqs, lines = build_stream wl ~seed ~seconds in
  let n = Array.length lines in
  let expected = (Reference.compute reqs).digests in
  let stream_file = Filename.concat out_dir (wl.name ^ "-stream.txt") in
  (* Untraced, traced, untraced: the first pass warms the heap, the
     overhead ratio compares the last two. *)
  ignore (Layers.pipeline_pass ~lines ~n_seed ~expected ~trace:false ~stream_file);
  let traced, keyer = Layers.pipeline_pass ~lines ~n_seed ~expected ~trace:true ~stream_file in
  let untraced, _ = Layers.pipeline_pass ~lines ~n_seed ~expected ~trace:false ~stream_file in
  let batch_size =
    Layers.batcher_pass ~reqs ~n_seed ~expected ~window:wl.window
      ~scrapes:(n_seed, n_seed + n_paced, max 1 (n_paced / wl.scrapes))
  in
  let balance, shard_pending =
    match wl.topology with
    | `Single -> (0., 0.)
    | `Cluster shards ->
        (* Two sequential round trips per request: a prefix of the body
           keeps the pass inside the run's time budget. *)
        let m = min n (n_seed + 4000) in
        Layers.cluster_pass ~bin ~dir:out_dir ~lines:(Array.sub lines 0 m) ~reqs ~n_seed ~expected
          ~shards
  in
  Layers.write_spans (Filename.concat out_dir (Printf.sprintf "spans-%s.tsv" wl.name));
  let c = Layers.counts in
  let busy op = List.fold_left ( +. ) 0. Layers.samples.(Layers.op_index op) in
  let pipeline_ops = Array.to_list (Array.sub Layers.ops 0 12) in
  let largest = List.fold_left (fun a op -> if busy op > busy a then op else a) (List.hd pipeline_ops) pipeline_ops in
  let run_record =
    Json.Obj
    [ ("workload", Json.Str wl.name); ("seed", Json.int seed); ("seconds", Json.int seconds);
      ("commit", Json.Str (commit ())); ("source_digest", Json.Str (source_digest ()));
      ("ocaml", Json.Str Sys.ocaml_version); ("nproc", Json.int (nproc ()));
      ("traced_requests", Json.int c.replies);
      ("replay_s", Json.Obj [ ("untraced", Json.Num untraced); ("traced", Json.Num traced) ]);
      ("largest_layer", Json.Str largest);
      ("solve_prepared_share", Json.Num (busy "Admission.solve_prepared" /. c.request_time));
      ("tiling_errors", Json.int c.tiling_errors); ("mismatched", Json.int c.mismatches);
      ("spans", Json.Str (Filename.concat out_dir (Printf.sprintf "spans-%s.tsv" wl.name))) ]
  in
  let failed = c.mismatches + c.tiling_errors in
  ( run_record,
    result ~correct:(failed = 0) ~attempted:n ~failed
    (layer_metrics ()
    @ [ metric "Admission.inc_hit_ratio" (ratio c.inc_hits c.adds) "ratio";
        metric "Admission.portfolio_share" (ratio c.portfolio c.solves) "ratio";
        metric "Cache.hit_ratio" (ratio c.hits c.lookups) "ratio";
        metric "Cache.Keyer.reuse_ratio"
          (ratio keyer.Cache.Keyer.reused (keyer.reused + keyer.rendered)) "ratio";
        metric "Protocol.reply_bytes" (ratio c.reply_bytes c.replies) "bytes";
        metric "Batcher.batch_size" batch_size "count";
        metric "Dispatcher.shard_pending" shard_pending "count";
        metric "Registry.balance" balance "ratio";
        metric "replay.self_share" (c.self_time /. c.request_time) "ratio";
        metric "trace.overhead_ratio" (traced /. untraced) "ratio" ]) )

(* ------------------------------------------------------------------ *)
(* The benchmark's own tests                                           *)

let stream_bytes wl ~seed =
  let st = wl.stream ~seed ~n:400 in
  String.concat "\n" (Array.to_list (Array.map Protocol.render_request (Array.append st.seed_reqs st.body)))

(* Metric names and units a BENCHMARK.json section declares. *)
let declared section =
  match Json.of_string (Client.read_file "BENCHMARK.json") with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j -> (
      match Json.member section j with
      | Some (Json.List l) ->
          List.map
            (fun m ->
              match (Json.member "name" m, Json.member "unit" m) with
              | Some (Json.Str n), Some (Json.Str u) -> (n, u)
              | _ -> failwith "metric without name/unit")
            l
      | _ -> failwith ("BENCHMARK.json has no " ^ section))

let selftest ~bin =
  let failures = ref 0 in
  let check what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  (* Every prediction in layers.json names a declared per-layer metric
     (an op's family or a ratio). *)
  let per_layer = List.map fst (declared "per_layer") in
  (match Json.of_string (Client.read_file "perfbench/layers.json") with
  | Ok j -> (
      match Json.member "layers" j with
      | Some (Json.List l) ->
          List.iter
            (fun e ->
              match Json.member "metric" e with
              | Some (Json.Str m) ->
                  check
                    (Printf.sprintf "layers.json: %s is a per_layer metric" m)
                    (List.exists
                       (fun n -> n = m || (String.length n > String.length m && String.sub n 0 (String.length m + 1) = m ^ "."))
                       per_layer)
              | _ -> check "layers.json: entry has a metric" false)
            l
      | _ -> check "layers.json has layers" false)
  | Error e -> check ("layers.json parses: " ^ e) false);
  List.iter
    (fun wl ->
      check (wl.name ^ ": same seed, same bytes") (stream_bytes wl ~seed:7 = stream_bytes wl ~seed:7);
      check (wl.name ^ ": another seed, another stream") (stream_bytes wl ~seed:7 <> stream_bytes wl ~seed:8))
    workloads;
  (* The reference interpreter against the batched one, on a training
     seed and on a held-out seed. *)
  List.iter
    (fun seed ->
      List.iter
        (fun wl ->
          let st = wl.stream ~seed ~n:300 in
          let reqs = Array.append st.seed_reqs st.body in
          let config = { E2e_serve.Batcher.default_config with queue_capacity = Array.length reqs + 1 } in
          let batched =
            E2e_serve.Stripes.process_log (E2e_serve.Stripes.create ~config ~stripes:2 ()) (Array.to_list reqs)
          in
          let digest a = Digest.to_hex (Digest.string (String.concat "" (Array.to_list a))) in
          let reference = Reference.compute ~check_schedules:wl.check_schedules reqs in
          check
            (Printf.sprintf "%s seed %d: reference digest matches the batched replay" wl.name seed)
            (digest reference.digests
            = digest (Array.map (fun o -> Digest.string (Protocol.render_reply o)) batched)
            && reference.schedule_failures = 0))
        workloads)
    [ 7; 1009 ];
  let metrics_of (_, r) =
    match r with
    | Json.Obj fields -> (
        (match List.assoc_opt "correct" fields with Some (Json.Bool b) -> b | _ -> false),
        match Json.member "metrics" r with Some (Json.Obj m) -> m | _ -> [])
    | _ -> (false, [])
  in
  let wall_clock (run_record, _) =
    match Json.member "wall_clock" run_record with Some (Json.Obj m) -> m | _ -> []
  in
  let has_all declared printed =
    List.for_all
      (fun (name, unit) ->
        match List.assoc_opt name printed with
        | Some m -> Json.member "unit" m = Some (Json.Str unit)
        | None -> false)
      declared
  in
  List.iter
    (fun wl ->
      List.iter
        (fun seed ->
          let run = run_e2e ~bin wl ~seed ~seconds:1 in
          let ok, m = metrics_of run in
          check (Printf.sprintf "%s seed %d: tiny end-to-end run is correct" wl.name seed) ok;
          check (wl.name ^ ": every end_to_end metric printed with its unit") (has_all (declared "end_to_end") m);
          check (wl.name ^ ": wall-clock figures recorded with their units")
            (has_all
               [ ("capacity_rps", "1/s"); ("p50_ms", "ms"); ("p99_ms", "ms"); ("scrape_p95_ms", "ms") ]
               (wall_clock run)))
        [ 7; 1009 ];
      let ok, m = metrics_of (run_trace ~bin wl ~seed:7 ~seconds:1) in
      check (wl.name ^ ": tiny traced run is correct") ok;
      check (wl.name ^ ": every per_layer metric printed with its unit") (has_all (declared "per_layer") m))
    workloads;
  if !failures > 0 then begin
    Printf.printf "%d selftest check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "selftest passed"

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench.exe run --workload NAME --seed N --seconds S --trace 0|1 --bin DIR\n\
    \       perfbench.exe selftest --bin DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt k = function
    | key :: v :: _ when key = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let get k = match opt k args with Some v -> v | None -> usage () in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match args with
  | "run" :: _ ->
      let name = get "--workload" in
      let wl =
        match List.find_opt (fun w -> w.name = name) workloads with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %s\n" name;
            exit 2
      in
      let seed = int_of_string (get "--seed") and seconds = int_of_string (get "--seconds") in
      let bin = get "--bin" in
      let run_record, res =
        match get "--trace" with
        | "0" -> run_e2e ~bin wl ~seed ~seconds
        | "1" -> run_trace ~bin wl ~seed ~seconds
        | _ -> usage ()
      in
      print_endline ("record " ^ Json.to_string run_record);
      print_endline (Json.to_string res);
      exit (match res with Json.Obj (("correct", Json.Bool true) :: _) -> 0 | _ -> 1)
  | "selftest" :: _ -> selftest ~bin:(get "--bin")
  | _ -> usage ()
