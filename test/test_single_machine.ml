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

let test_inc_trap_add_remove () =
  let tau = r 2 in
  (* Start from the long-window job alone, then add the tight job: the
     warm state must discover the trap's forbidden region. *)
  let st = Sm.Inc.make ~tau [| job 0 (r 0) (r 10) |] in
  agree ~what:"base" ~tau st (Sm.Inc.jobs st);
  let st' = Sm.Inc.add_task st ~at:1 ~release:(r 1) ~deadline:(r 3) in
  agree ~what:"after add" ~tau st' (Sm.Inc.jobs st');
  (match Sm.Inc.solve st' with
  | Ok starts -> check_rat "tight job at its release" (r 1) starts.(1)
  | Error `Infeasible -> Alcotest.fail "trap instance is feasible");
  (* Persistence: the pre-add state still answers for the old set. *)
  Alcotest.(check int) "input state untouched" 1 (Sm.Inc.n_jobs st);
  agree ~what:"input state" ~tau st (Sm.Inc.jobs st);
  let st'' = Sm.Inc.remove_task st' ~at:1 in
  Alcotest.(check int) "back to one job" 1 (Sm.Inc.n_jobs st'');
  agree ~what:"after remove" ~tau st'' (Sm.Inc.jobs st'')

let test_inc_infeasibility_flips () =
  let tau = r 1 in
  let st = Sm.Inc.make ~tau [| job 0 (r 0) (r 1) |] in
  let st' = Sm.Inc.add_task st ~at:1 ~release:(r 0) ~deadline:(r 1) in
  (match Sm.Inc.solve st' with
  | Error `Infeasible -> ()
  | Ok _ -> Alcotest.fail "two unit jobs in one unit window");
  agree ~what:"infeasible state" ~tau st' (Sm.Inc.jobs st');
  (* Dropping either of the clashing jobs restores feasibility. *)
  match Sm.Inc.solve (Sm.Inc.remove_task st' ~at:0) with
  | Ok starts -> check_rat "survivor at release" (r 0) starts.(0)
  | Error `Infeasible -> Alcotest.fail "one unit job fits"

(* Which path one [add_task] took, read from the counters it emits into
   a memory sink. *)
let add_path st ~at ~release ~deadline =
  let sink, events = Obs.Sink.memory () in
  Obs.install sink;
  let st' =
    Fun.protect ~finally:Obs.uninstall (fun () -> Sm.Inc.add_task st ~at ~release ~deadline)
  in
  let paths =
    List.filter_map
      (fun (e : Obs.event) ->
        match e.kind with
        | Obs.Counter _ when e.name = "eedf.inc_append" -> Some `Append
        | Obs.Counter _ when e.name = "eedf.inc_resweep" -> Some `Resweep
        | _ -> None)
      (events ())
  in
  Obs.reset_metrics ();
  match paths with
  | [ p ] -> (st', p)
  | _ -> Alcotest.failf "expected exactly one path counter, got %d" (List.length paths)

(* The append test's boundaries, each from the trap state (tau = 2,
   max release 1, max deadline 10, one forbidden region): bounds met
   exactly take the append path, a quarter unit short rebuilds, and
   every resulting state agrees with the reference, before and after a later
   drop of the new job and of a resident one. *)
let test_inc_append_boundaries () =
  let tau = r 2 and q = Rat.make 1 4 in
  let st = Sm.Inc.make ~tau (trap_instance ()) in
  let cases =
    [
      ("both bounds exact", 2, r 8, r 12, `Append);
      ("deadline bound exact", 2, r 7, r 12, `Append);
      ("window bound exact", 2, r 9, r 13, `Append);
      ("deadline a quarter short", 2, r 7, Rat.sub (r 12) q, `Resweep);
      ("window a quarter short", 2, Rat.add (r 8) q, r 12, `Resweep);
      ("release equal to the max release", 2, r 1, r 14, `Resweep);
      ("not at the end", 1, r 8, r 12, `Resweep);
    ]
  in
  List.iter
    (fun (what, at, release, deadline, expected) ->
      let st', path = add_path st ~at ~release ~deadline in
      Alcotest.(check bool) (what ^ ": path") true (path = expected);
      agree ~what ~tau st' (Sm.Inc.jobs st');
      let dropped = Sm.Inc.remove_task st' ~at in
      agree ~what:(what ^ ", new job dropped") ~tau dropped (Sm.Inc.jobs dropped);
      let dropped = Sm.Inc.remove_task st' ~at:0 in
      agree ~what:(what ^ ", resident dropped") ~tau dropped (Sm.Inc.jobs dropped))
    cases;
  (* An infeasible state never appends, and a chain of appends from the
     empty state stays exact. *)
  let bad = Sm.Inc.make ~tau:(r 1) [| job 0 (r 0) (r 1); job 1 (r 0) (r 1) |] in
  let bad', path = add_path bad ~at:2 ~release:(r 5) ~deadline:(r 9) in
  Alcotest.(check bool) "infeasible state: path" true (path = `Resweep);
  agree ~what:"infeasible state" ~tau:(r 1) bad' (Sm.Inc.jobs bad');
  let st = ref (Sm.Inc.make ~tau [||]) in
  for k = 0 to 4 do
    let st', path = add_path !st ~at:k ~release:(r (5 * k)) ~deadline:(r ((5 * k) + 4)) in
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
  let st', path = add_path st ~at:1 ~release:(q "0.5") ~deadline:(r 9) in
  Alcotest.(check bool) "in-horizon add rebuilds" true (path = `Resweep);
  agree ~what:"after the rebuild" ~tau st' (Sm.Inc.jobs st');
  let st'', path = add_path st' ~at:3 ~release:(r 9) ~deadline:(r 13) in
  Alcotest.(check bool) "past-horizon arrival appends" true (path = `Append);
  Alcotest.(check int) "four jobs" 4 (Sm.Inc.n_jobs st'');
  agree ~what:"after the append" ~tau st'' (Sm.Inc.jobs st'')

(* Random churn property: a chain of adds then drops, checked against
   the reference at every step (the unit-test-sized sibling of the
   eedf-inc fuzz class). *)
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
      let check what =
        let jobs = Sm.Inc.jobs !st in
        let scratch = Ref.schedule ~tau (to_ref (reid jobs)) in
        match (Sm.Inc.solve !st, scratch) with
        | Error `Infeasible, Error `Infeasible -> ()
        | Ok a, Ok b when Array.length a = Array.length b && Array.for_all2 Rat.equal a b ->
            ()
        | _ -> QCheck.Test.fail_reportf "diverged at %s" what
      in
      for k = 1 to n - 1 do
        let at = Prng.int g (Sm.Inc.n_jobs !st + 1) in
        st := Sm.Inc.add_task !st ~at ~release:jobs.(k).Sm.release ~deadline:jobs.(k).Sm.deadline;
        check (Printf.sprintf "add %d" k)
      done;
      while Sm.Inc.n_jobs !st > 1 do
        st := Sm.Inc.remove_task !st ~at:(Prng.int g (Sm.Inc.n_jobs !st));
        check "drop"
      done;
      true)

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
  ]
