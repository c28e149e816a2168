module Rat = E2e_rat.Rat
module Sm = E2e_core.Single_machine
module Prng = E2e_prng.Prng
module Obs = E2e_obs.Obs
module Ref = E2e_fuzz.Single_machine_ref
open Helpers

let job id release deadline = { Sm.id; release; deadline }

(* The canonical example showing plain EDF is not optimal for arbitrary
   release times: a long-window job released first grabs the machine and
   makes a tight later job miss; the forbidden region forces the machine
   to wait.  tau = 2; J0: r=0, d=10; J1: r=1, d=3. *)
let trap_instance () = [| job 0 (r 0) (r 10); job 1 (r 1) (r 3) |]

let test_plain_edf_fails_trap () =
  match Sm.edf_schedule_no_regions ~tau:(r 2) (trap_instance ()) with
  | Error (`Deadline_missed 1) -> ()
  | Error (`Deadline_missed i) -> Alcotest.failf "wrong job missed: %d" i
  | Ok _ -> Alcotest.fail "plain EDF should fail on the trap instance"

let test_regions_solve_trap () =
  let jobs = trap_instance () in
  match Sm.schedule ~tau:(r 2) jobs with
  | Error `Infeasible -> Alcotest.fail "trap instance is feasible"
  | Ok starts ->
      Alcotest.(check bool) "valid" true (Sm.feasible_starts ~tau:(r 2) jobs starts);
      (* J1 must run at time 1; J0 therefore cannot start in (-1, 1). *)
      check_rat "tight job at its release" (r 1) starts.(1)

let test_trap_regions () =
  match Sm.forbidden_regions ~tau:(r 2) (trap_instance ()) with
  | Error `Infeasible -> Alcotest.fail "feasible"
  | Ok regions ->
      Alcotest.(check bool) "some region before t=1" true
        (List.exists
           (fun { Sm.left; right } -> Rat.(left < r 1) && Rat.(right = r 1))
           regions)

let test_infeasible_detected () =
  (* Two unit jobs in one unit window. *)
  let jobs = [| job 0 (r 0) (r 1); job 1 (r 0) (r 1) |] in
  (match Sm.schedule ~tau:(r 1) jobs with
  | Error `Infeasible -> ()
  | Ok _ -> Alcotest.fail "should be infeasible");
  Alcotest.(check bool) "brute force agrees" false (Sm.brute_force_feasible ~tau:(r 1) jobs)

let test_empty_and_single () =
  (match Sm.schedule ~tau:(r 1) [||] with
  | Ok [||] -> ()
  | _ -> Alcotest.fail "empty instance");
  match Sm.schedule ~tau:(r 3) [| job 0 (r 5) (r 8) |] with
  | Ok starts -> check_rat "single job at release" (r 5) starts.(0)
  | Error _ -> Alcotest.fail "single job fits exactly"

let test_integral_release_edf_suffices () =
  (* With all parameters multiples of tau, no forbidden region is ever
     needed (the paper's "simply use classical EEDF" case). *)
  let jobs = [| job 0 (r 0) (r 4); job 1 (r 2) (r 6); job 2 (r 0) (r 8) |] in
  match Sm.forbidden_regions ~tau:(r 2) jobs with
  | Ok regions -> Alcotest.(check int) "no regions" 0 (List.length regions)
  | Error `Infeasible -> Alcotest.fail "feasible"

let test_schedule_matches_brute_force_on_example () =
  let jobs =
    [| job 0 (q "0.5") (r 4); job 1 (r 0) (q "2.5"); job 2 (r 1) (r 7); job 3 (r 3) (r 9) |]
  in
  let tau = r 2 in
  Alcotest.(check bool) "brute force feasible" true (Sm.brute_force_feasible ~tau jobs);
  match Sm.schedule ~tau jobs with
  | Ok starts -> Alcotest.(check bool) "valid" true (Sm.feasible_starts ~tau jobs starts)
  | Error `Infeasible -> Alcotest.fail "EEDF must find it"

(* Optimality property: on random small instances, EEDF-with-regions
   succeeds exactly when exhaustive search finds a feasible order; and
   whatever it outputs passes the independent validity check. *)
let random_jobs g n =
  Array.init n (fun id ->
      let release = Prng.rat_uniform g ~den:4 Rat.zero (r 6) in
      let window = Prng.rat_uniform g ~den:4 (r 2) (r 8) in
      { Sm.id; release; deadline = Rat.add release window })

let prop_optimality =
  QCheck.Test.make ~name:"single machine: EEDF+regions optimal vs brute force" ~count:400
    (QCheck.make
       ~print:(fun seed -> "seed " ^ string_of_int seed)
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 5 in
      let tau = Rat.make (2 + Prng.int g 7) 2 in
      let jobs = random_jobs g n in
      let exact = Sm.brute_force_feasible ~tau jobs in
      match Sm.schedule ~tau jobs with
      | Ok starts -> exact && Sm.feasible_starts ~tau jobs starts
      | Error `Infeasible -> not exact)

let prop_plain_edf_never_beats_exact =
  QCheck.Test.make ~name:"single machine: plain EDF sound (when it succeeds, valid)"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 5 in
      let tau = Rat.make (2 + Prng.int g 7) 2 in
      let jobs = random_jobs g n in
      match Sm.edf_schedule_no_regions ~tau jobs with
      | Ok starts -> Sm.feasible_starts ~tau jobs starts
      | Error (`Deadline_missed _) -> true)

let prop_regions_disjoint_sorted =
  QCheck.Test.make ~name:"single machine: forbidden regions sorted and disjoint" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 6 in
      let tau = Rat.make (2 + Prng.int g 7) 2 in
      let jobs = random_jobs g n in
      match Sm.forbidden_regions ~tau jobs with
      | Error `Infeasible -> true
      | Ok regions ->
          let rec ok = function
            | { Sm.left; right } :: ({ Sm.left = l2; _ } as r2) :: rest ->
                Rat.(left < right) && Rat.(right <= l2) && ok (r2 :: rest)
            | [ { Sm.left; right } ] -> Rat.(left < right)
            | [] -> true
          in
          ok regions)

(* {1 Engine vs the scan-based reference} *)

let to_ref jobs =
  Array.map (fun (j : Sm.job) -> { Ref.id = j.id; release = j.release; deadline = j.deadline }) jobs

let same_regions (a : Sm.region list) (b : Ref.region list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Sm.region) (y : Ref.region) -> Rat.equal x.left y.left && Rat.equal x.right y.right)
       a b

let same_starts a b = Array.length a = Array.length b && Array.for_all2 Rat.equal a b

(* Engine results for [jobs] (ids = positions) against the reference's
   solve of the same jobs. *)
let against_ref ~what ~tau ~regions ~starts jobs =
  let jobs = to_ref jobs in
  (match (regions, Ref.forbidden_regions ~tau jobs) with
  | Error `Infeasible, Error `Infeasible -> ()
  | Ok a, Ok b -> Alcotest.(check bool) (what ^ ": regions agree") true (same_regions a b)
  | _ -> Alcotest.failf "%s: region verdicts disagree" what);
  match (starts, Ref.schedule ~tau jobs) with
  | Error `Infeasible, Error `Infeasible -> ()
  | Ok a, Ok b -> Alcotest.(check bool) (what ^ ": schedules agree") true (same_starts a b)
  | _ -> Alcotest.failf "%s: schedule verdicts disagree" what

(* [schedule] and [forbidden_regions] against the reference:
   [`Regions] when feasible with at least one region, [`Plain] when
   feasible without one, [`Infeasible] otherwise. *)
let check_against_ref ~what ~tau jobs =
  let regions = Sm.forbidden_regions ~tau jobs and starts = Sm.schedule ~tau jobs in
  against_ref ~what ~tau ~regions ~starts jobs;
  match (regions, starts) with
  | _, Error `Infeasible -> `Infeasible
  | Ok [], Ok _ -> `Plain
  | _ -> `Regions

(* Each side of the job count that switches the packing pass from the
   fold to the segment tree, on quarter-unit releases dense enough that
   instances range from region-heavy to infeasible. *)
let test_kernel_boundary () =
  let k = Sm.Inc.fold_max_jobs in
  let tau = r 1 in
  let seen = Hashtbl.create 3 in
  List.iter
    (fun n ->
      for seed = 0 to 19 do
        let g = Prng.create ((1000 * n) + seed) in
        let span = Rat.make (n * (3 + (seed mod 3))) 4 in
        let jobs =
          Array.init n (fun id ->
              let release = Prng.rat_uniform g ~den:4 Rat.zero span in
              let window = Prng.rat_uniform g ~den:4 (r 1) (r (2 + (seed mod 6))) in
              { Sm.id; release; deadline = Rat.add release window })
        in
        let kind = check_against_ref ~what:(Printf.sprintf "n=%d seed %d" n seed) ~tau jobs in
        Hashtbl.replace seen kind ()
      done)
    [ k - 1; k; k + 1; k + 2 ];
  List.iter
    (fun (kind, name) -> Alcotest.(check bool) ("some instance is " ^ name) true (Hashtbl.mem seen kind))
    [ (`Regions, "feasible with regions"); (`Infeasible, "infeasible") ]

(* {1 Incremental state} *)

(* The exactness contract: after any edit, the state's regions,
   schedule and verdict must equal the scan-based reference's solve of
   the same (position-id'd) job set. *)
let reid jobs = Array.mapi (fun i (j : Sm.job) -> { j with Sm.id = i }) jobs

let agree ~what ~tau st jobs =
  against_ref ~what ~tau ~regions:(Sm.Inc.regions st) ~starts:(Sm.Inc.solve st) (reid jobs)

(* The warm state for [jobs] plus one arrival: an exact append when it
   is past the horizon, a rebuild otherwise — the two things the warm
   handle does. *)
let append_or_make st ~release ~deadline =
  match Sm.Inc.append st ~release ~deadline with
  | Some st' -> (st', `Append)
  | None ->
      let jobs = Array.append (Sm.Inc.jobs st) [| job 0 release deadline |] in
      (Sm.Inc.make ~tau:(Sm.Inc.tau st) jobs, `Rebuild)

let test_inc_trap_add_remove () =
  let tau = r 2 in
  (* Start from the long-window job alone, then add the tight job: it is
     inside the horizon, so the state is rebuilt, and the rebuild must
     discover the trap's forbidden region. *)
  let st = Sm.Inc.make ~tau [| job 0 (r 0) (r 10) |] in
  agree ~what:"base" ~tau st (Sm.Inc.jobs st);
  let st', path = append_or_make st ~release:(r 1) ~deadline:(r 3) in
  Alcotest.(check bool) "in-horizon job is not appended" true (path = `Rebuild);
  agree ~what:"after add" ~tau st' (Sm.Inc.jobs st');
  (match Sm.Inc.solve st' with
  | Ok starts -> check_rat "tight job at its release" (r 1) starts.(1)
  | Error `Infeasible -> Alcotest.fail "trap instance is feasible");
  (* Persistence: an append leaves its input state answering for the
     old set. *)
  (match Sm.Inc.append st' ~release:(r 12) ~deadline:(r 16) with
  | Some st'' -> Alcotest.(check int) "appended" 3 (Sm.Inc.n_jobs st'')
  | None -> Alcotest.fail "past-horizon job must append");
  Alcotest.(check int) "input state untouched" 2 (Sm.Inc.n_jobs st');
  agree ~what:"input state" ~tau st' (Sm.Inc.jobs st');
  let st'' = Sm.Inc.make ~tau [| (Sm.Inc.jobs st').(0) |] in
  Alcotest.(check int) "back to one job" 1 (Sm.Inc.n_jobs st'');
  agree ~what:"after remove" ~tau st'' (Sm.Inc.jobs st'')

let test_inc_infeasibility_flips () =
  let tau = r 1 in
  let st = Sm.Inc.make ~tau [| job 0 (r 0) (r 1) |] in
  let st', _ = append_or_make st ~release:(r 0) ~deadline:(r 1) in
  (match Sm.Inc.solve st' with
  | Error `Infeasible -> ()
  | Ok _ -> Alcotest.fail "two unit jobs in one unit window");
  agree ~what:"infeasible state" ~tau st' (Sm.Inc.jobs st');
  (* Dropping either of the clashing jobs restores feasibility. *)
  match Sm.Inc.solve (Sm.Inc.make ~tau [| (Sm.Inc.jobs st').(1) |]) with
  | Ok starts -> check_rat "survivor at release" (r 0) starts.(0)
  | Error `Infeasible -> Alcotest.fail "one unit job fits"

(* The append test's boundaries, each from the trap state (tau = 2,
   max release 1, max deadline 10, one forbidden region): bounds met
   exactly append, a quarter unit short is refused (and rebuilt), and
   every resulting state agrees with the reference. *)
let test_inc_append_boundaries () =
  let tau = r 2 and q = Rat.make 1 4 in
  let st = Sm.Inc.make ~tau (trap_instance ()) in
  let cases =
    [
      ("both bounds exact", r 8, r 12, `Append);
      ("deadline bound exact", r 7, r 12, `Append);
      ("window bound exact", r 9, r 13, `Append);
      ("deadline a quarter short", r 7, Rat.sub (r 12) q, `Rebuild);
      ("window a quarter short", Rat.add (r 8) q, r 12, `Rebuild);
      ("release equal to the max release", r 1, r 14, `Rebuild);
    ]
  in
  List.iter
    (fun (what, release, deadline, expected) ->
      let st', path = append_or_make st ~release ~deadline in
      Alcotest.(check bool) (what ^ ": path") true (path = expected);
      agree ~what ~tau st' (Sm.Inc.jobs st'))
    cases;
  (* An infeasible state never appends, and a chain of appends from the
     empty state stays exact. *)
  let bad = Sm.Inc.make ~tau:(r 1) [| job 0 (r 0) (r 1); job 1 (r 0) (r 1) |] in
  Alcotest.(check bool) "infeasible state: refused" true
    (Sm.Inc.append bad ~release:(r 5) ~deadline:(r 9) = None);
  let st = ref (Sm.Inc.make ~tau [||]) in
  for k = 0 to 4 do
    let st', path = append_or_make !st ~release:(r (5 * k)) ~deadline:(r ((5 * k) + 4)) in
    Alcotest.(check bool) (Printf.sprintf "chain %d: path" k) true (path = `Append);
    agree ~what:(Printf.sprintf "chain %d" k) ~tau st' (Sm.Inc.jobs st');
    st := st'
  done

(* An in-horizon add rebuilds the state; the rebuilt state must still
   take the append path for a later past-horizon arrival.  The trap
   state (tau = 2, one forbidden region) gains a job inside its horizon,
   then one past it. *)
let test_inc_rebuild_then_append () =
  let tau = r 2 in
  let st = Sm.Inc.make ~tau (trap_instance ()) in
  let st', path = append_or_make st ~release:(q "0.5") ~deadline:(r 9) in
  Alcotest.(check bool) "in-horizon add rebuilds" true (path = `Rebuild);
  agree ~what:"after the rebuild" ~tau st' (Sm.Inc.jobs st');
  let st'', path = append_or_make st' ~release:(r 9) ~deadline:(r 13) in
  Alcotest.(check bool) "past-horizon arrival appends" true (path = `Append);
  Alcotest.(check int) "four jobs" 4 (Sm.Inc.n_jobs st'');
  agree ~what:"after the append" ~tau st'' (Sm.Inc.jobs st'')

(* Random growth property: a chain of arrivals, half of them past the
   horizon, each appended or rebuilt and checked against the reference
   (the unit-test-sized sibling of the eedf-inc fuzz class). *)
let prop_inc_matches_scratch =
  QCheck.Test.make ~name:"single machine: incremental matches from-scratch under churn"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Prng.create seed in
      let n = 2 + Prng.int g 6 in
      let tau = Rat.make (2 + Prng.int g 7) 2 in
      let jobs = random_jobs g n in
      let st = ref (Sm.Inc.make ~tau [| jobs.(0) |]) in
      for k = 1 to n - 1 do
        let j =
          if Prng.int g 2 = 0 then jobs.(k)
          else
            (* Shift the job past every resident release and deadline. *)
            let top =
              Array.fold_left
                (fun acc (j : Sm.job) -> Rat.max acc (Rat.max j.release j.deadline))
                Rat.zero (Sm.Inc.jobs !st)
            in
            { (jobs.(k)) with
              release = Rat.add top jobs.(k).release;
              deadline = Rat.add top jobs.(k).deadline }
        in
        st := fst (append_or_make !st ~release:j.release ~deadline:j.deadline);
        let scratch = Ref.schedule ~tau (to_ref (reid (Sm.Inc.jobs !st))) in
        match (Sm.Inc.solve !st, scratch) with
        | Error `Infeasible, Error `Infeasible -> ()
        | Ok a, Ok b when Array.length a = Array.length b && Array.for_all2 Rat.equal a b -> ()
        | _ -> QCheck.Test.fail_reportf "diverged at arrival %d" k
      done;
      true)

(* Extending a warm flow-shop handle does one thing per call: appends
   a past-horizon tail exactly, or rebuilds once — never once per new
   task.  Counted from the events the extension emits into a memory
   sink. *)
let test_extend_rebuilds_once () =
  let module Solver = E2e_core.Solver in
  let module Flow_shop = E2e_model.Flow_shop in
  let shop tasks =
    Flow_shop.of_params (Array.of_list (List.map (fun (a, b) -> (r a, r b, [| r 1; r 1 |])) tasks))
  in
  let base = [ (0, 4); (1, 6); (2, 8); (3, 9) ] in
  let handle =
    match Solver.Incremental.solve_with_state (shop base) with
    | _, Some h -> h
    | _, None -> Alcotest.fail "base shop is feasible"
  in
  let counts h grown =
    let sink, events = Obs.Sink.memory () in
    Obs.install sink;
    let h' = Fun.protect ~finally:Obs.uninstall (fun () -> Solver.Incremental.extend h grown) in
    let count p = List.length (List.filter p (events ())) in
    let counter name =
      count (fun (e : Obs.event) ->
          e.name = name && match e.kind with Obs.Counter _ -> true | _ -> false)
    in
    let spans name = count (fun (e : Obs.event) -> e.name = name && e.kind = Obs.Span_begin) in
    let c =
      ( counter "eedf.inc_resweep",
        counter "eedf.inc_append",
        spans "single_machine.forbidden_regions" )
    in
    Obs.reset_metrics ();
    match h' with
    | None -> Alcotest.fail "extend refused an identical-length extension"
    | Some h' ->
        (match (Solver.Incremental.verdict h' grown, Solver.solve grown) with
        | Solver.Feasible (a, _), Solver.Feasible (b, _) ->
            Alcotest.(check bool) "warm schedule equals cold" true (a = b)
        | Solver.Proved_infeasible _, Solver.Proved_infeasible _ -> ()
        | _ -> Alcotest.fail "warm and cold verdicts differ");
        c
  in
  let in_horizon = shop [ (0, 4); (1, 5); (1, 6); (2, 8); (2, 10); (3, 9) ] in
  let resweeps, appends, passes = counts handle in_horizon in
  Alcotest.(check int) "in-horizon: one rebuild" 1 resweeps;
  Alcotest.(check int) "in-horizon: no append" 0 appends;
  Alcotest.(check int) "in-horizon: one region build" 1 passes;
  let past_horizon = shop (base @ [ (10, 14); (12, 17) ]) in
  let resweeps, appends, passes = counts handle past_horizon in
  Alcotest.(check int) "past-horizon: no rebuild" 0 resweeps;
  Alcotest.(check int) "past-horizon: two appends" 2 appends;
  Alcotest.(check int) "past-horizon: no region build" 0 passes

let suite =
  [
    Alcotest.test_case "plain EDF fails the trap" `Quick test_plain_edf_fails_trap;
    Alcotest.test_case "regions solve the trap" `Quick test_regions_solve_trap;
    Alcotest.test_case "trap yields a region" `Quick test_trap_regions;
    Alcotest.test_case "infeasibility detected" `Quick test_infeasible_detected;
    Alcotest.test_case "empty and singleton" `Quick test_empty_and_single;
    Alcotest.test_case "grid-aligned needs no regions" `Quick test_integral_release_edf_suffices;
    Alcotest.test_case "worked example" `Quick test_schedule_matches_brute_force_on_example;
    Alcotest.test_case "incremental: trap add/remove" `Quick test_inc_trap_add_remove;
    Alcotest.test_case "incremental: feasibility flips" `Quick test_inc_infeasibility_flips;
    Alcotest.test_case "incremental: append boundaries" `Quick test_inc_append_boundaries;
    to_alcotest prop_optimality;
    to_alcotest prop_plain_edf_never_beats_exact;
    to_alcotest prop_regions_disjoint_sorted;
    to_alcotest prop_inc_matches_scratch;
    Alcotest.test_case "incremental: rebuild then append" `Quick test_inc_rebuild_then_append;
    Alcotest.test_case "fold/tree kernel boundary vs reference" `Quick test_kernel_boundary;
    Alcotest.test_case "incremental: one rebuild per extend" `Quick test_extend_rebuilds_once;
  ]
