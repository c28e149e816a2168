(* The admission service: canonical cache behaviour, batched
   determinism across domain counts, cache transparency, soundness of
   admitted schedules and rejection certificates, backpressure, the
   wire protocol, and the dispatcher replaying admitted schedules. *)

module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
module Infeasibility = E2e_core.Infeasibility
module Feasible_gen = E2e_workload.Feasible_gen
module Dispatcher = E2e_sim.Dispatcher
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Cache = E2e_serve.Cache
module Protocol = E2e_serve.Protocol
module Server = E2e_serve.Server
module Listener = E2e_serve.Listener
module Stripes = E2e_serve.Stripes
module Serve_fuzz = E2e_fuzz.Serve_fuzz

(* ------------------------------------------------------------------ *)
(* Workload helpers                                                   *)

let gen_instance g =
  let n = 2 + Prng.int g 3 and m = 2 + Prng.int g 2 in
  Recurrence_shop.of_traditional
    (Feasible_gen.generate g
       { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5;
         slack_factor = 1.0 +. Prng.float g 1.0 })

(* Window strictly below total processing time: provably infeasible. *)
let infeasible_instance () =
  let tasks =
    [|
      Task.make ~id:0 ~release:Rat.zero ~deadline:Rat.one
        ~proc_times:[| Rat.one; Rat.one |];
    |]
  in
  Recurrence_shop.of_traditional (Flow_shop.make ~processors:2 tasks)

(* A mixed request log: submits, permuted resubmissions, adds, queries,
   drops — a pure function of the seed. *)
let gen_log seed requests =
  let g = Prng.of_path [| seed; 97; 0 |] in
  let live = ref [] and fresh = ref 0 in
  let fresh_shop () = incr fresh; Printf.sprintf "s%d" !fresh in
  let pick () =
    match !live with [] -> None | l -> Some (List.nth l (Prng.int g (List.length l)))
  in
  List.init requests (fun _ ->
      let p = Prng.float g 1.0 in
      if p < 0.40 || !live = [] then begin
        let shop = fresh_shop () and instance = gen_instance g in
        live := (shop, instance) :: !live;
        Admission.Submit { shop; instance }
      end
      else if p < 0.60 then begin
        let _, earlier = Option.get (pick ()) in
        let shop = fresh_shop () and instance = Feasible_gen.permute g earlier in
        live := (shop, instance) :: !live;
        Admission.Submit { shop; instance }
      end
      else if p < 0.80 then begin
        let shop, committed = Option.get (pick ()) in
        let k = Array.length committed.Recurrence_shop.tasks.(0).Task.proc_times in
        let taus = Array.make k Rat.one in
        let release = Prng.rat_uniform g ~den:10 Rat.zero (Rat.of_int 3) in
        Admission.Add
          { shop; tasks = [ (release, Rat.add release (Rat.of_int (3 * k)), taus) ] }
      end
      else if p < 0.92 then
        Admission.Query { shop = (match pick () with Some (s, _) -> s | None -> "none") }
      else begin
        let shop = match pick () with Some (s, _) -> s | None -> "none" in
        live := List.filter (fun (s, _) -> s <> shop) !live;
        Admission.Drop { shop }
      end)

let render_outcomes outcomes =
  String.concat "\n"
    (Array.to_list
       (Array.map (Protocol.render_reply ~schedules:false) outcomes))

let run_log ~jobs ~cache_capacity log =
  let config =
    { Batcher.queue_capacity = max 1 (List.length log); batch = 4;
      budget = Admission.Unbounded; jobs; cache_capacity }
  in
  let s = Stripes.create ~config () in
  (Stripes.process_log s log, s)

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check (option int)) "a present" (Some 1) (Cache.find c "a");
  (* "a" is now most recent, so adding "c" evicts "b". *)
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 3 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Cache.size

let test_cache_disabled_and_invalid () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "capacity 0 never stores" None (Cache.find c "a");
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Cache.create: capacity must be >= 0") (fun () ->
      ignore (Cache.create ~capacity:(-1)))

let test_canonical_key_permutation_invariant () =
  let g = Prng.of_path [| 5; 98; 0 |] in
  for _ = 1 to 20 do
    let shop = gen_instance g in
    let shuffled = Feasible_gen.permute g shop in
    Alcotest.(check string)
      "permutation has the same canonical key" (Cache.key shop) (Cache.key shuffled);
    (* A schedule computed on the canonical form, restored to the
       original labelling, must still satisfy every constraint. *)
    let canon = Cache.canonicalize shuffled in
    let sched = E2e_core.Greedy_edf.schedule canon.Cache.shop in
    let restored =
      Schedule.make shuffled (Cache.restore_starts canon sched.Schedule.starts)
    in
    match Schedule.check restored with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "restored schedule violates constraints"
  done

(* The incremental Add path must be indistinguishable from a from-scratch
   canonicalization of the merged candidate: same key, same permutation,
   same rendered lines — byte for byte. *)
let test_merge_matches_canonicalize () =
  let g = Prng.of_path [| 5; 99; 0 |] in
  for _ = 1 to 30 do
    let shop = gen_instance g in
    let n = Recurrence_shop.n_tasks shop in
    let h = 1 + Prng.int g (n - 1) in
    let committed =
      Recurrence_shop.make ~visit:shop.Recurrence_shop.visit
        (Array.sub shop.Recurrence_shop.tasks 0 h)
    in
    let fresh = Array.sub shop.Recurrence_shop.tasks h (n - h) in
    let merged = Cache.merge ~base:(Cache.canonicalize committed) fresh in
    let full = Cache.canonicalize shop in
    Alcotest.(check string) "merge key = full key" full.Cache.key merged.Cache.key;
    Alcotest.(check (array int)) "merge perm = full perm" full.Cache.perm merged.Cache.perm;
    Alcotest.(check (array string)) "merge lines = full lines" full.Cache.lines
      merged.Cache.lines
  done

let test_keyer_reuses () =
  let g = Prng.of_path [| 5; 97; 0 |] in
  let k = Cache.Keyer.create () in
  for _ = 1 to 10 do
    let shop = gen_instance g in
    let c1 = Cache.Keyer.canonicalize k shop in
    Alcotest.(check string) "keyer agrees with canonicalize" (Cache.key shop) c1.Cache.key;
    (* A permutation sorts to the same canonical instance, so the second
       canonicalization must skip the render-and-digest step yet hand
       back the same key (and a perm valid for the permuted shop). *)
    let shuffled = Feasible_gen.permute g shop in
    let c2 = Cache.Keyer.canonicalize k shuffled in
    Alcotest.(check string) "permutation reuses the key" c1.Cache.key c2.Cache.key;
    (* The reused canonical carries the shuffled shop's own perm: the
       task at canonical position [p] must be (a content-equal twin of)
       [shuffled.tasks.(perm.(p))]. *)
    Array.iteri
      (fun p orig ->
        Alcotest.(check string) "perm points at a content-equal task"
          c2.Cache.lines.(p)
          (E2e_model.Instance_io.task_line shuffled.Recurrence_shop.tasks.(orig)))
      c2.Cache.perm
  done;
  let s = Cache.Keyer.stats k in
  Alcotest.(check bool) "every permutation was a reuse" true (s.Cache.Keyer.reused >= 10);
  Alcotest.(check bool) "distinct instances rendered once each" true
    (s.Cache.Keyer.rendered >= 1 && s.Cache.Keyer.rendered <= 10)

(* ------------------------------------------------------------------ *)
(* Determinism and cache transparency                                 *)

let test_deterministic_across_jobs () =
  List.iter
    (fun seed ->
      let log = gen_log seed 40 in
      let o1, _ = run_log ~jobs:1 ~cache_capacity:64 log in
      let o4, _ = run_log ~jobs:4 ~cache_capacity:64 log in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: -j1 and -j4 reply logs identical" seed)
        (render_outcomes o1) (render_outcomes o4))
    [ 1; 2; 3 ]

let test_cache_transparent () =
  List.iter
    (fun seed ->
      let log = gen_log seed 40 in
      let on, st = run_log ~jobs:2 ~cache_capacity:64 log in
      let off, _ = run_log ~jobs:2 ~cache_capacity:0 log in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: cached and uncached replies identical" seed)
        (render_outcomes off) (render_outcomes on);
      (* The comparison only means something if the cache actually got
         exercised. *)
      let s = Option.get (Stripes.cache_stats st) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: cache saw lookups" seed)
        true
        (s.Cache.hits + s.Cache.misses > 0))
    [ 1; 2; 3 ]

(* The fuzzer's own differential harness, as a regression test: batched
   cached engine vs sequential cache-free reference. *)
let test_fuzz_serve_class () =
  let r = Serve_fuzz.run ~jobs:2 ~seed:11 ~trials:25 () in
  Alcotest.(check int) "trials" 25 r.Serve_fuzz.trials;
  Alcotest.(check int) "all agreed" 25 r.Serve_fuzz.agreed

let test_fuzz_codec_class () =
  let r = E2e_fuzz.Codec_fuzz.run ~seed:11 ~trials:500 () in
  if r.E2e_fuzz.Codec_fuzz.findings <> [] then
    Alcotest.failf "%a" E2e_fuzz.Codec_fuzz.pp_report r;
  Alcotest.(check int) "all agreed" 500 r.E2e_fuzz.Codec_fuzz.agreed

(* ------------------------------------------------------------------ *)
(* Soundness                                                          *)

let admitted_schedules outcomes =
  Array.to_list outcomes
  |> List.filter_map (function
       | Batcher.Reply
           (Admission.Decided { decision = Admission.Admitted { schedule; _ }; _ }) ->
           Some schedule
       | _ -> None)

let test_admitted_schedules_check () =
  let log = gen_log 7 60 in
  let outcomes, _ = run_log ~jobs:4 ~cache_capacity:32 log in
  let schedules = admitted_schedules outcomes in
  Alcotest.(check bool) "log admits something" true (List.length schedules > 0);
  List.iter
    (fun s ->
      match Schedule.check s with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "admitted schedule fails the checker")
    schedules

let test_rejection_certificate () =
  let instance = infeasible_instance () in
  let _, reply =
    Admission.apply Admission.empty (Admission.Submit { shop = "bad"; instance })
  in
  match reply with
  | Admission.Decided { decision = Admission.Rejected { certificate = Some _ }; _ } ->
      let fs =
        Flow_shop.make ~processors:instance.Recurrence_shop.visit.E2e_model.Visit.processors
          instance.Recurrence_shop.tasks
      in
      Alcotest.(check bool)
        "certificate confirmed by the independent checker" true
        (Infeasibility.is_provably_infeasible fs)
  | _ -> Alcotest.fail "infeasible set not rejected with a certificate"

let test_rejected_never_commits () =
  let state, _ =
    Admission.apply Admission.empty
      (Admission.Submit { shop = "bad"; instance = infeasible_instance () })
  in
  Alcotest.(check int) "nothing committed" 0 (Admission.n_committed state)

(* ------------------------------------------------------------------ *)
(* Backpressure                                                       *)

let test_backpressure () =
  let config =
    { Batcher.queue_capacity = 4; batch = 2; budget = Admission.Unbounded; jobs = 1;
      cache_capacity = 8 }
  in
  let s = Stripes.create ~config () in
  let log = List.init 10 (fun i -> Admission.Query { shop = Printf.sprintf "q%d" i }) in
  let outcomes = Stripes.process_log s log in
  let overloaded =
    Array.to_list outcomes
    |> List.filter (function Batcher.Overloaded -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "exactly the overflow is refused" 6 overloaded;
  Alcotest.(check int) "every request got an answer" 10 (Array.length outcomes);
  Array.iteri
    (fun i o ->
      let expect_overloaded = i >= 4 in
      let is_overloaded = o = Batcher.Overloaded in
      Alcotest.(check bool)
        (Printf.sprintf "request %d backpressure position" i)
        expect_overloaded is_overloaded)
    outcomes;
  Alcotest.(check int) "queue drained" 0 (Stripes.pending s)

let test_batch_splits_same_shop () =
  (* Two requests on one shop are order-dependent: the duplicate submit
     must be answered after (and because of) the first one committing. *)
  let g = Prng.of_path [| 13; 96; 0 |] in
  let instance = gen_instance g in
  let log =
    [
      Admission.Submit { shop = "x"; instance };
      Admission.Submit { shop = "x"; instance = Feasible_gen.permute g instance };
    ]
  in
  let outcomes, _ = run_log ~jobs:2 ~cache_capacity:8 log in
  (match outcomes.(0) with
  | Batcher.Reply (Admission.Decided { decision = Admission.Admitted _; _ }) -> ()
  | _ -> Alcotest.fail "first submit should be admitted");
  match outcomes.(1) with
  | Batcher.Reply (Admission.Request_error _) -> ()
  | _ -> Alcotest.fail "duplicate submit should be an error"

(* ------------------------------------------------------------------ *)
(* Admitted schedules replayed through the runtime dispatcher         *)

let test_dispatcher_replays_admissions () =
  let log = gen_log 21 40 in
  let outcomes, _ = run_log ~jobs:2 ~cache_capacity:32 log in
  let schedules = admitted_schedules outcomes in
  Alcotest.(check bool) "log admits something" true (List.length schedules > 0);
  List.iter
    (fun s ->
      List.iter
        (fun discipline ->
          let nominal = Dispatcher.scale_durations s ~factor:Rat.one in
          let out = Dispatcher.run discipline s ~actual:nominal in
          Alcotest.(check int)
            "no structural violations under nominal durations" 0
            out.Dispatcher.structural_violations;
          Alcotest.(check int)
            "no deadline misses under nominal durations" 0
            (List.length out.Dispatcher.deadline_misses))
        [ Dispatcher.Time_triggered; Dispatcher.Work_conserving ];
      (* Early completions must stay sustainable. *)
      let early = Dispatcher.scale_durations s ~factor:(Rat.make 1 2) in
      Alcotest.(check bool)
        "time-triggered sustainable under early completion" true
        (Dispatcher.sustainable_time_triggered s ~actual:early))
    schedules

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)

let roundtrip line =
  match Protocol.parse_request line with
  | Ok (Protocol.Request r) -> Protocol.render_request r
  | Ok _ -> Alcotest.fail (Printf.sprintf "%S: not a request" line)
  | Error m -> Alcotest.fail (Printf.sprintf "%S: %s" line m)

let test_protocol_roundtrip () =
  List.iter
    (fun line -> Alcotest.(check string) line line (roundtrip line))
    [
      "submit s1 task 0 10 1 1 ; task 0 8 2 2";
      "submit s2 visit 1 2 1 ; task 0 10 1 1 1 ; task 1/2 21/2 2 2 2";
      "add s1 task 3/4 5 1 2";
      "query s1";
      "drop s1";
    ]

let test_protocol_errors_and_controls () =
  (match Protocol.parse_request "hello e2e-serve/1" with
  | Ok (Protocol.Hello v) -> Alcotest.(check string) "hello version" Protocol.version v
  | _ -> Alcotest.fail "hello not parsed");
  (match Protocol.parse_request "stats" with
  | Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats not parsed");
  (match Protocol.parse_request "quit" with
  | Ok Protocol.Quit -> ()
  | _ -> Alcotest.fail "quit not parsed");
  (match Protocol.parse_request "# comment" with
  | Ok Protocol.Blank -> ()
  | _ -> Alcotest.fail "comment not blank");
  (match Protocol.parse_request "" with
  | Ok Protocol.Blank -> ()
  | _ -> Alcotest.fail "empty not blank");
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" line))
    [
      "submit";
      "submit bad/name! task 0 1 1";
      "submit s1 nonsense 1 2";
      "add s1 visit 1 2 ; task 0 1 1 1" (* visit not allowed in add *);
      "frobnicate s1";
      "query";
    ]

let test_protocol_render_reply () =
  let reply =
    Admission.Queried { shop = "s1"; n_tasks = Some 3 }
  in
  Alcotest.(check string)
    "info rendering" "info shop=s1 tasks=3"
    (Protocol.render_reply (Batcher.Reply reply));
  Alcotest.(check string)
    "overloaded rendering" "overloaded"
    (Protocol.render_reply Batcher.Overloaded);
  Alcotest.(check string)
    "hello ok" "ok e2e-serve/1"
    (Protocol.render_hello ~requested:Protocol.version)

(* ------------------------------------------------------------------ *)
(* Incremental admission                                              *)

let identical_instance ?(n = 6) seed =
  let g = Prng.of_path [| seed; 55; 0 |] in
  Recurrence_shop.of_traditional
    (Feasible_gen.identical_length g ~n ~m:2 ~tau:Rat.one ~window:(2 * n))

let add_one shop release =
  Admission.Add
    { shop; tasks = [ (release, Rat.add release (Rat.of_int 6), Array.make 2 Rat.one) ] }

(* An identical-length submit leaves a warm [Machine] handle; the
   following adds must ride the delta path, be admitted, and keep the
   resident accounting in step. *)
let test_incremental_warm_path () =
  let log =
    [
      Admission.Submit { shop = "w"; instance = identical_instance 3 };
      add_one "w" Rat.zero;
      add_one "w" (Rat.of_int 2);
    ]
  in
  let outcomes, s = run_log ~jobs:1 ~cache_capacity:0 log in
  let b = Stripes.batcher s 0 in
  Array.iter
    (fun o ->
      match o with
      | Batcher.Reply (Admission.Decided { decision = Admission.Admitted _; _ }) -> ()
      | o -> Alcotest.failf "expected admitted, got %a" Protocol.pp_outcome o)
    outcomes;
  let svc = Batcher.service_stats b in
  Alcotest.(check int) "both adds on the delta path" 2 svc.Batcher.inc_hits;
  Alcotest.(check int) "no fallbacks" 0 svc.Batcher.inc_misses;
  Alcotest.(check (list (pair string int))) "resident sizes track commits"
    [ ("w", 8) ] svc.Batcher.resident;
  Alcotest.(check int) "warm handle covers the whole shop" 8
    (Admission.warm_resident (Batcher.engine b))

(* A shop admitted through the portfolio (no [Machine] handle) sends its
   adds down the full-solve path and counts misses, with replies still
   matching the sequential reference engine. *)
let test_incremental_fallback_counted () =
  let g = Prng.of_path [| 9; 55; 1 |] in
  let log =
    [ Admission.Submit { shop = "c"; instance = gen_instance g }; add_one "c" Rat.zero ]
  in
  let _, s = run_log ~jobs:1 ~cache_capacity:0 log in
  let svc = Stripes.service_stats s in
  Alcotest.(check int) "no delta hits without a handle" 0 svc.Batcher.inc_hits;
  Alcotest.(check int) "fallback counted" 1 svc.Batcher.inc_misses

(* Replies must not depend on whether the delta path or a worker-domain
   full solve produced them. *)
let test_incremental_transparent_across_jobs () =
  let log =
    Admission.Submit { shop = "w"; instance = identical_instance 11 }
    :: List.init 6 (fun i -> add_one "w" (Rat.of_int i))
  in
  let o1, _ = run_log ~jobs:1 ~cache_capacity:64 log in
  let o4, _ = run_log ~jobs:4 ~cache_capacity:64 log in
  Alcotest.(check string) "byte-identical replies" (render_outcomes o1) (render_outcomes o4)

let test_metrics_exposes_incremental () =
  let log =
    [ Admission.Submit { shop = "w"; instance = identical_instance 3 }; add_one "w" Rat.zero ]
  in
  let _, s = run_log ~jobs:1 ~cache_capacity:0 log in
  let metrics = Protocol.render_metrics_striped s in
  let contains needle =
    let nl = String.length needle and ml = String.length metrics in
    let rec go i = i + nl <= ml && (String.sub metrics i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("metrics expose " ^ needle) true (contains needle))
    [
      "serve_incremental_hits_total 1";
      "serve_incremental_misses_total 0";
      "serve_warm_resident_tasks 7";
      "serve_shop_resident_tasks{shop=\"w\"} 7";
    ]

(* ------------------------------------------------------------------ *)
(* Protocol hardening: whitespace splitting and the add whitelist      *)

(* Regression: [cut_word] split only on the space character, so a
   tab-separated request misparsed its first word and fell through to a
   parse error.  Any ASCII whitespace must now delimit words. *)
let test_protocol_whitespace () =
  (match Protocol.parse_request "query\ts1" with
  | Ok (Protocol.Request (Admission.Query { shop })) ->
      Alcotest.(check string) "tab-separated query" "s1" shop
  | Ok _ -> Alcotest.fail "tab-separated query parsed as something else"
  | Error m -> Alcotest.failf "tab-separated query rejected: %s" m);
  (match Protocol.parse_request "drop\t s1" with
  | Ok (Protocol.Request (Admission.Drop { shop })) ->
      Alcotest.(check string) "tab+space drop" "s1" shop
  | _ -> Alcotest.fail "tab+space drop misparsed");
  let render line =
    match Protocol.parse_request line with
    | Ok (Protocol.Request r) -> Protocol.render_request r
    | Ok _ -> Alcotest.failf "%S: not a request" line
    | Error m -> Alcotest.failf "%S: %s" line m
  in
  Alcotest.(check string) "tabs parse like spaces"
    (render "add s1 task 0 6 1 1")
    (render "add\ts1\ttask 0 6 1 1")

(* Regression: [parse_tasks] only *extracted* task directives, so a
   payload smuggling any other directive (visit, or garbage like
   [procs 3]) was silently accepted with the stray line dropped.  Every
   non-task directive must be rejected outright. *)
let test_parse_tasks_whitelist () =
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" line)
    [
      "add s1 visit 1 2 ; task 0 6 1 1";
      "add s1 procs 3 ; task 0 6 1 1";
      "add s1 task 0 6 1 1 ; deadline 5";
      "add s1 frobnicate";
      "submit s1 task 0 6 1 1 ; procs 3";
    ];
  (* Comments and blank segments stay legal inside a payload. *)
  match Protocol.parse_request "add s1 task 0 6 1 1 ; # a note ; ; task 1 7 1 1" with
  | Ok (Protocol.Request (Admission.Add { shop; tasks })) ->
      Alcotest.(check string) "shop" "s1" shop;
      Alcotest.(check int) "both tasks kept" 2 (List.length tasks)
  | _ -> Alcotest.fail "commented add payload rejected"

(* ------------------------------------------------------------------ *)
(* Concurrent TCP transport                                            *)

let test_resolve_host () =
  Alcotest.(check string) "dotted quad" "127.0.0.1"
    (Unix.string_of_inet_addr (Listener.resolve_host "127.0.0.1"));
  Alcotest.(check string) "hostname resolves" "127.0.0.1"
    (Unix.string_of_inet_addr (Listener.resolve_host "localhost"));
  match Listener.resolve_host "no-such-host.invalid" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bogus hostname resolved"

(* Run [serve_tcp] on an ephemeral port in its own domain, hand the
   bound port to [f], and join the server once [f] has consumed
   [max_connections] connections. *)
let with_server ?(jobs = 1) ?(accept_pool = 3) ?(window = 64) ?(drainers = 1)
    ~max_connections f =
  let config =
    { Batcher.default_config with Batcher.jobs; Batcher.queue_capacity = 4096 }
  in
  let stripes = Stripes.create ~config ~stripes:drainers () in
  let p, srv =
    Listener.spawn
      (fun ~ready ->
        Server.serve_tcp ~schedules:false ~max_connections ~accept_pool ~window ~ready
          ~port:0 stripes)
  in
  let r = f p in
  (* Only join on success: a failed assertion must surface, not hang
     behind a server still waiting for its connection quota. *)
  Domain.join srv;
  r

let prefix_shop pfx : Admission.request -> Admission.request = function
  | Admission.Submit { shop; instance } -> Admission.Submit { shop = pfx ^ shop; instance }
  | Admission.Add { shop; tasks } -> Admission.Add { shop = pfx ^ shop; tasks }
  | Admission.Query { shop } -> Admission.Query { shop = pfx ^ shop }
  | Admission.Drop { shop } -> Admission.Drop { shop = pfx ^ shop }

(* The sequential oracle for one connection: replay just that
   connection's log through a fresh single-domain batcher. *)
let oracle_replies log =
  let config = { Batcher.default_config with Batcher.queue_capacity = 4096 } in
  let outcomes = Stripes.process_log (Stripes.create ~config ()) log in
  Array.to_list (Array.map (Protocol.render_reply ~schedules:false) outcomes)

(* The transport's headline guarantee: M concurrent pipelined clients
   on disjoint shop namespaces each read exactly the reply stream a
   dedicated sequential server would have produced for their own
   request log — at every jobs value, under any interleaving the
   scheduler happens to pick. *)
let test_concurrent_transport () =
  let n_clients = 3 and requests = 24 in
  let logs =
    List.init n_clients (fun c ->
        List.map (prefix_shop (Printf.sprintf "c%d." c)) (gen_log (300 + c) requests))
  in
  let expected = List.map (fun log -> oracle_replies log @ [ "bye" ]) logs in
  let run_once ~jobs =
    with_server ~jobs ~accept_pool:n_clients ~max_connections:n_clients (fun port ->
        logs
        |> List.map (fun log ->
               let lines = List.map Protocol.render_request log in
               Domain.spawn (fun () -> Helpers.tcp_session port lines))
        |> List.map Domain.join)
  in
  List.iter
    (fun jobs ->
      let results = run_once ~jobs in
      List.iteri
        (fun i ((greeting, replies), want) ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d client %d greeting" jobs i)
            Protocol.greeting greeting;
          Alcotest.(check (list string))
            (Printf.sprintf "jobs=%d client %d replies match its sequential oracle" jobs i)
            want replies)
        (List.combine results expected))
    [ 1; 4 ]

(* Regression: teardown closed the socket without draining the write
   side, so a reply buffered behind [quit] could be lost.  A pipelined
   request+quit written in one burst must still yield the reply line,
   the farewell, then a clean EOF. *)
let test_quit_flushes_replies () =
  with_server ~accept_pool:1 ~max_connections:1 (fun port ->
      let greeting, replies = Helpers.tcp_session port [ "query ghost" ] in
      Alcotest.(check string) "greeting" Protocol.greeting greeting;
      Alcotest.(check (list string))
        "reply drained before farewell"
        [ "info shop=ghost unknown"; "bye" ]
        replies)

(* Regression: a connection that vanishes before (or during) setup must
   not take the accept pool down — the next connection is served
   normally. *)
let test_abrupt_disconnect () =
  with_server ~accept_pool:1 ~max_connections:2 (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.close fd;
      let greeting, replies = Helpers.tcp_session port [ "query ghost" ] in
      Alcotest.(check string) "second connection greeted" Protocol.greeting greeting;
      Alcotest.(check (list string))
        "second connection served"
        [ "info shop=ghost unknown"; "bye" ]
        replies)

(* An oversized TCP request line is answered with the protocol error,
   then the connection closes: the line was never fully read, so there
   is no safe resynchronisation point. *)
let test_tcp_oversized_line () =
  with_server ~accept_pool:1 ~max_connections:1 (fun port ->
      let greeting, replies = Helpers.oversized_line_session port in
      Alcotest.(check string) "greeting" Protocol.greeting greeting;
      Alcotest.(check (list string))
        "error reply, then end-of-stream"
        [ "error shop=- request line too long" ]
        replies)

(* The listener refuses to start on a control handle that is already
   shut down: [serve_tcp] returns at once and never reports a port. *)
let test_tcp_stopped_control () =
  let control = Listener.control () in
  Listener.shutdown control;
  let readied = ref false in
  Server.serve_tcp ~control ~ready:(fun _ -> readied := true) ~port:0 (Stripes.create ());
  Alcotest.(check bool) "ready never called" false !readied

(* A spawned front end that cannot bind fails its caller instead of
   leaving it waiting for a port: a second listener on a port already
   in use raises EADDRINUSE, and one on a stopped control fails. *)
let test_spawn_bind_failure () =
  let control = Listener.control () in
  let port, first =
    Listener.spawn (fun ~ready -> Server.serve_tcp ~control ~ready ~port:0 (Stripes.create ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Listener.shutdown control;
      Domain.join first)
    (fun () ->
      match
        Listener.spawn (fun ~ready ->
            Server.serve_tcp ~max_connections:0 ~ready ~port (Stripes.create ()))
      with
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
      | _, d ->
          Domain.join d;
          Alcotest.fail "second listener bound a port already in use");
  match
    Listener.spawn (fun ~ready -> Server.serve_tcp ~control ~ready ~port:0 (Stripes.create ()))
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "spawn on a stopped control reported a port"

(* ------------------------------------------------------------------ *)
(* Striped batcher                                                     *)

(* The striping invariant's headline: replaying one interleaved log
   (same-shop chains and cross-shop traffic mixed) through 1, 2 and 4
   stripes yields byte-identical replies — the stripe map is a pure
   function of the shop name, same-shop requests stay FIFO on their
   stripe, and the caches are transparent however their contents
   partition. *)
let test_stripe_determinism () =
  let config = { Batcher.default_config with Batcher.queue_capacity = 4096 } in
  (* Interleave two namespaces round-robin so consecutive requests
     almost always hit different stripes while each shop's own history
     stays in order. *)
  let a = gen_log 501 60 and b = List.map (prefix_shop "x.") (gen_log 502 60) in
  let rec weave = function
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys -> x :: y :: weave (xs, ys)
  in
  let log = weave (a, b) in
  let render outcomes =
    Array.to_list (Array.map (Protocol.render_reply ~schedules:true) outcomes)
  in
  let run stripes =
    render (Stripes.process_log (Stripes.create ~config ~stripes ()) log)
  in
  let baseline = run 1 in
  (* The log's shops must actually spread over stripes, or the check is
     vacuous. *)
  let shops =
    List.sort_uniq compare (List.map Batcher.shop_of log)
  in
  let hit =
    List.sort_uniq compare
      (List.map (fun s -> Stripes.stripe_index ~stripes:4 s) shops)
  in
  Alcotest.(check bool) "log spans multiple stripes" true (List.length hit > 1);
  List.iter
    (fun stripes ->
      Alcotest.(check (list string))
        (Printf.sprintf "stripes=%d replies byte-identical to 1-stripe" stripes)
        baseline (run stripes))
    [ 2; 4 ];
  (* Request ids partition without collision across stripes. *)
  let s4 = Stripes.create ~config ~stripes:4 () in
  ignore (Stripes.process_log s4 log);
  let ids_seen = Stripes.last_id s4 in
  Alcotest.(check bool) "ids handed out" true (ids_seen >= List.length log / 2)

(* The shop hash is part of the wire-visible behaviour: it places shops
   on stripes here and on shards in the cluster ring.  Pinned to
   literal values, so no edit can move a shop silently. *)
let test_fnv1a_pinned () =
  List.iter
    (fun (name, hash, stripe) ->
      Alcotest.(check int) (Printf.sprintf "fnv1a %S" name) hash (Stripes.fnv1a name);
      Alcotest.(check int) (Printf.sprintf "stripe of %S" name) stripe
        (Stripes.stripe_index ~stripes:4 name))
    [
      ("", 821694572336006002, 2);
      ("s0", 379600922039792775, 3);
      ("alpha", 2078234241766689537, 1);
      ("shop-17", 1956716972289808082, 2);
      ("127.0.0.1:7401#3", 1422720402647424303, 3);
    ]

(* The striped TCP transport against per-connection sequential oracles:
   same guarantee as [test_concurrent_transport], now with one drainer
   domain per stripe. *)
let test_multi_drainer_transport () =
  let n_clients = 3 and requests = 24 in
  let logs =
    List.init n_clients (fun c ->
        List.map (prefix_shop (Printf.sprintf "d%d." c)) (gen_log (700 + c) requests))
  in
  let expected = List.map (fun log -> oracle_replies log @ [ "bye" ]) logs in
  List.iter
    (fun drainers ->
      let results =
        with_server ~drainers ~accept_pool:n_clients ~max_connections:n_clients
          (fun port ->
            logs
            |> List.map (fun log ->
                   let lines = List.map Protocol.render_request log in
                   Domain.spawn (fun () -> Helpers.tcp_session port lines))
            |> List.map Domain.join)
      in
      List.iteri
        (fun i ((greeting, replies), want) ->
          Alcotest.(check string)
            (Printf.sprintf "drainers=%d client %d greeting" drainers i)
            Protocol.greeting greeting;
          Alcotest.(check (list string))
            (Printf.sprintf "drainers=%d client %d replies match oracle" drainers i)
            want replies)
        (List.combine results expected))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Wire read-error surface and the shared stdio read path              *)

(* A peer that dies hard (RST) must surface as [`Error], not a clean
   [`Eof] — serve_tcp and the dispatcher account the two separately. *)
let test_wire_error_surface () =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let port =
    match Unix.getsockname lsock with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect client (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let server, _ = Unix.accept lsock in
  Unix.close lsock;
  let r = E2e_serve.Wire.make_reader server in
  ignore (Unix.write_substring client "hello\n" 0 6);
  (match E2e_serve.Wire.read_line r with
  | `Line l -> Alcotest.(check string) "line before reset" "hello" l
  | _ -> Alcotest.fail "expected the line written before the reset");
  (* SO_LINGER 0 close sends RST instead of FIN. *)
  Unix.setsockopt_optint client Unix.SO_LINGER (Some 0);
  Unix.close client;
  (match E2e_serve.Wire.read_line r with
  | `Error _ -> ()
  | `Eof -> Alcotest.fail "reset surfaced as clean EOF"
  | `Line _ | `Too_long -> Alcotest.fail "reset surfaced as data");
  Unix.close server

(* Regression for the stdio transport's move onto the bounded Wire
   reader: an oversized request line is answered with the protocol
   error and ends the session instead of hanging or misparsing the
   line's tail. *)
let test_session_oversized_line () =
  (* The session stops reading mid-line at the cap; closing the read
     end un-blocks the writer thread (EPIPE, not a killing SIGPIPE). *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  let oversized = String.make (E2e_serve.Wire.max_line + 8) 'a' in
  let writer =
    Thread.create
      (fun () ->
        let payload = "query ghost\n" ^ oversized ^ "\nquery ghost\n" in
        (try E2e_serve.Wire.write_all req_w payload with Unix.Unix_error _ -> ());
        Unix.close req_w)
      ()
  in
  Server.session ~schedules:false (Stripes.create ()) req_r rep_w;
  Unix.close rep_w;
  Unix.close req_r;
  Thread.join writer;
  let ic = Unix.in_channel_of_descr rep_r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  match List.rev !lines with
  | [ greeting; reply; err ] ->
      Alcotest.(check string) "greeting" Protocol.greeting greeting;
      Alcotest.(check string) "first request answered" "info shop=ghost unknown" reply;
      Alcotest.(check bool) "oversized line answered with the protocol error" true
        (String.length err >= 5 && String.sub err 0 5 = "error");
      (* The third request never ran: the session ended at the cap. *)
      ()
  | lines ->
      Alcotest.failf "expected greeting+reply+error then EOF, got %d lines"
        (List.length lines)

(* One stdio session over pipes: every line in, every reply line out
   (greeting first). *)
let stdio_session lines =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  E2e_serve.Wire.write_all req_w (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  Unix.close req_w;
  Server.session (Stripes.create ()) req_r rep_w;
  Unix.close rep_w;
  Unix.close req_r;
  let ic = Unix.in_channel_of_descr rep_r in
  let replies = In_channel.input_all ic in
  close_in ic;
  String.split_on_char '\n' (String.trim replies)

(* Regression for the literal-grammar fix, end to end: OCaml-syntax
   numbers used to be admitted ([0x10] as 16), and an overflowing
   literal raised an uncaught [Rat.Overflow] that killed the server, as
   did well-formed numbers whose release/deadline comparison overflows.
   All are now ordinary parse errors and the session carries on.  A
   well-formed task whose solve overflows (slack of near-[2^62] times)
   is answered as an error for its shop, not a crash. *)
let test_session_rejects_ocaml_literals () =
  match
    stdio_session
      [ "submit s1 task 0x0 0x10 1_0 0b1"; "submit s2 task 0 -4611686018427387904 1";
        "submit s3 task 0 0.00000000000000000000000000000000000000000000000000000000000000005 1";
        "submit x task 4611686018427387903/2 4611686018427387902/3 1";
        "submit x task 0 4611686018427387903 4611686018427387903 4611686018427387903";
        "query s1"; "quit" ]
  with
  | [ greeting; lit; overflow; tiny; window; solve; query; bye ] ->
      Alcotest.(check string) "greeting" Protocol.greeting greeting;
      Alcotest.(check string) "0x0 rejected"
        "error shop=- line 1: Rat.of_decimal_string: \"0x0\"" lit;
      Alcotest.(check string) "min_int literal rejected"
        "error shop=- line 1: Rat.of_decimal_string: \"-4611686018427387904\"" overflow;
      Alcotest.(check bool) "unrepresentable decimal rejected" true
        (String.starts_with ~prefix:"error shop=- line 1: Rat.of_decimal_string:" tiny);
      Alcotest.(check string) "overflowing window rejected"
        "error shop=- Task.make: release and deadline out of range" window;
      Alcotest.(check string) "overflowing solve answered as an error"
        "error shop=x arithmetic overflow: task times too large to solve exactly" solve;
      Alcotest.(check string) "nothing committed" "info shop=s1 unknown" query;
      Alcotest.(check string) "session survives" "bye" bye
  | lines -> Alcotest.failf "unexpected session: %s" (String.concat " | " lines)

(* ------------------------------------------------------------------ *)
(* One session engine: chunks and the control-reply barrier            *)

(* Read reply lines from [fd] until [n] have arrived or [seconds] pass;
   returns the lines seen so far. *)
let read_lines_within fd ~n ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let lines () =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if List.length (lines ()) < n && left > 0. then
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              go ())
  in
  go ();
  lines ()

(* Regression: a stdio session read a whole [--batch]-line chunk before
   answering, so a client that waits for each reply hung.  A session
   whose input pipe stays open after one [ping] must answer it at once,
   also when the start of the next line came with it. *)
let test_stdio_answers_before_eof () =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  let session = Thread.create (fun () -> Server.session (Stripes.create ()) req_r rep_w) () in
  E2e_serve.Wire.write_all req_w "ping\nqu";
  let seen = read_lines_within rep_r ~n:2 ~seconds:5. in
  (* Release the session whatever was seen, so a failure cannot hang. *)
  E2e_serve.Wire.write_all req_w "it\n";
  Unix.close req_w;
  Thread.join session;
  List.iter Unix.close [ req_r; rep_w; rep_r ];
  Alcotest.(check (list string))
    "greeting and pong within 5 s, input still open"
    [ Protocol.greeting; "pong " ^ Protocol.version ]
    seen

(* TCP [stats] observe the connection's own chunk: a submit and a
   [stats] arriving in one write see the submit committed. *)
let test_tcp_stats_see_own_chunk () =
  let submit =
    Protocol.render_request (Admission.Submit { shop = "s"; instance = identical_instance 3 })
  in
  with_server ~accept_pool:1 ~max_connections:1 (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let greeting = read_lines_within fd ~n:1 ~seconds:10. in
      E2e_serve.Wire.write_all fd (submit ^ "\nstats\n");
      let replies = read_lines_within fd ~n:2 ~seconds:10. in
      E2e_serve.Wire.write_all fd "quit\n";
      ignore (read_lines_within fd ~n:1 ~seconds:10.);
      Unix.close fd;
      Alcotest.(check (list string)) "greeting" [ Protocol.greeting ] greeting;
      match replies with
      | [ admitted; stats ] ->
          Alcotest.(check bool) ("submit admitted: " ^ admitted) true
            (String.starts_with ~prefix:"admitted shop=s " admitted);
          Alcotest.(check bool) ("stats after the submit: " ^ stats) true
            (String.starts_with ~prefix:"stats pending=0 shops=1 " stats)
      | l -> Alcotest.failf "expected two replies, got: %s" (String.concat " | " l))

(* A chunk is capped by the reply window: with [window = 2], twenty
   requests pipelined in one write are answered in order, no deadlock
   between the chunk's slots and the window. *)
let test_tcp_small_window_pipelined () =
  let log = List.map (prefix_shop "w.") (gen_log 808 20) in
  let want = oracle_replies log @ [ "bye" ] in
  with_server ~window:2 ~accept_pool:1 ~max_connections:1 (fun port ->
      let greeting, replies = Helpers.tcp_session port (List.map Protocol.render_request log) in
      Alcotest.(check string) "greeting" Protocol.greeting greeting;
      Alcotest.(check (list string)) "replies in order, matching the oracle" want replies)

(* A stdio replay of a regular file is cut every [min batch window]
   lines even when its lines overrun the 4 KiB read buffer: a file is
   always ready, so a chunk reads on past the buffer.  Sixteen 200-task
   submits, each line over 4 KiB, make one 16-request batch. *)
let test_file_replay_batches_long_lines () =
  let submits =
    List.init 16 (fun i ->
        Protocol.render_request
          (Admission.Submit
             { shop = "long" ^ string_of_int i; instance = identical_instance ~n:200 (900 + i) }))
  in
  Alcotest.(check bool) "every submit line overruns 4 KiB" true
    (List.for_all (fun l -> String.length l > 4096) submits);
  let path = Filename.temp_file "e2e_serve_replay" ".txt" in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (submits @ [ "metrics" ]));
  let in_fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let rep_r, rep_w = Unix.pipe () in
  (* Schedule-free replies: all of them fit the pipe buffer. *)
  Server.session ~schedules:false (Stripes.create ()) in_fd rep_w;
  Unix.close rep_w;
  Unix.close in_fd;
  Sys.remove path;
  let ic = Unix.in_channel_of_descr rep_r in
  let replies = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
  close_in ic;
  let metrics = List.nth replies (List.length replies - 1) in
  Alcotest.(check int) "greeting, 16 replies, metrics" 18 (List.length replies);
  Alcotest.(check bool) ("one 16-request batch: " ^ metrics) true
    (List.mem "serve_max_batch_size 16" (String.split_on_char ';' metrics))

let suite =
  [
    ("cache: LRU bookkeeping", `Quick, test_cache_lru);
    ("cache: capacity 0 and invalid", `Quick, test_cache_disabled_and_invalid);
    ("cache: canonical key permutation-invariant", `Quick,
     test_canonical_key_permutation_invariant);
    ("cache: incremental merge matches full canonicalization", `Quick,
     test_merge_matches_canonicalize);
    ("cache: keyer skips digests on repeats", `Quick, test_keyer_reuses);
    ("batcher: byte-identical replies across jobs", `Slow, test_deterministic_across_jobs);
    ("batcher: cache transparency", `Slow, test_cache_transparent);
    ("fuzz: serve differential class agrees", `Slow, test_fuzz_serve_class);
    ("fuzz: codec differential class agrees", `Quick, test_fuzz_codec_class);
    ("server: OCaml literals and overflowing numbers are parse errors", `Quick,
     test_session_rejects_ocaml_literals);
    ("admission: admitted schedules pass the checker", `Quick, test_admitted_schedules_check);
    ("admission: rejection carries a confirmed certificate", `Quick,
     test_rejection_certificate);
    ("admission: rejected sets never commit", `Quick, test_rejected_never_commits);
    ("batcher: backpressure answers overloaded", `Quick, test_backpressure);
    ("batcher: same-shop requests split batches", `Quick, test_batch_splits_same_shop);
    ("dispatcher: admitted schedules replay without misses", `Slow,
     test_dispatcher_replays_admissions);
    ("protocol: request round-trips", `Quick, test_protocol_roundtrip);
    ("protocol: controls and parse errors", `Quick, test_protocol_errors_and_controls);
    ("protocol: reply rendering", `Quick, test_protocol_render_reply);
    ("admission: warm delta path serves adds", `Quick, test_incremental_warm_path);
    ("admission: cold shops count delta misses", `Quick, test_incremental_fallback_counted);
    ("batcher: delta path transparent across jobs", `Quick,
     test_incremental_transparent_across_jobs);
    ("protocol: metrics expose incremental counters", `Quick,
     test_metrics_exposes_incremental);
    ("protocol: any whitespace splits words", `Quick, test_protocol_whitespace);
    ("protocol: add payloads whitelist task directives", `Quick,
     test_parse_tasks_whitelist);
    ("server: resolve_host accepts addresses and hostnames", `Quick, test_resolve_host);
    ("server: concurrent clients match their sequential oracles", `Slow,
     test_concurrent_transport);
    ("server: quit flushes buffered replies", `Quick, test_quit_flushes_replies);
    ("server: abrupt disconnect leaves the pool serving", `Quick, test_abrupt_disconnect);
    ("server: oversized TCP line answered and connection closed", `Quick,
     test_tcp_oversized_line);
    ("server: serve_tcp returns at once on a stopped control", `Quick,
     test_tcp_stopped_control);
    ("stripes: replies byte-identical across stripe counts", `Slow,
     test_stripe_determinism);
    ("server: multi-drainer transport matches sequential oracles", `Slow,
     test_multi_drainer_transport);
    ("wire: hard reset surfaces as `Error, not EOF", `Quick, test_wire_error_surface);
    ("server: oversized stdio line answered and session ended", `Quick,
     test_session_oversized_line);
    ("listener: spawn fails instead of hanging when the bind fails", `Quick,
     test_spawn_bind_failure);
    ("stripes: fnv1a pinned to literal values", `Quick, test_fnv1a_pinned);
    ("server: stdio answers a line before end of input", `Quick,
     test_stdio_answers_before_eof);
    ("server: TCP stats observe the connection's own chunk", `Quick,
     test_tcp_stats_see_own_chunk);
    ("server: window 2 answers 20 pipelined requests in order", `Quick,
     test_tcp_small_window_pipelined);
    ("server: a file replay batches lines past the read buffer", `Quick,
     test_file_replay_batches_long_lines);
  ]
