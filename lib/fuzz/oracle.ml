module Rat = E2e_rat.Rat
module Visit = E2e_model.Visit
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
module Eedf = E2e_core.Eedf
module Algo_r = E2e_core.Algo_r
module Algo_a = E2e_core.Algo_a
module Algo_h = E2e_core.Algo_h
module H_portfolio = E2e_core.H_portfolio
module Solver = E2e_core.Solver
module Exhaustive = E2e_baselines.Exhaustive
module Branch_bound = E2e_baselines.Branch_bound
module Exhaustive_recurrence = E2e_baselines.Exhaustive_recurrence

type kind =
  | Invalid_schedule
  | Claimed_infeasible
  | Claimed_feasible
  | Precondition
  | Divergence
  | Crash of string

type outcome = Agree | Skip of string | Bug of { kind : kind; detail : string }

let is_bug = function Bug _ -> true | Agree | Skip _ -> false

let pp_kind ppf = function
  | Invalid_schedule -> Format.pp_print_string ppf "schedule-invalid"
  | Claimed_infeasible -> Format.pp_print_string ppf "claimed-infeasible-but-oracle-feasible"
  | Claimed_feasible -> Format.pp_print_string ppf "claimed-feasible-but-oracle-infeasible"
  | Precondition -> Format.pp_print_string ppf "precondition-violation"
  | Divergence -> Format.pp_print_string ppf "engine-divergence"
  | Crash e -> Format.fprintf ppf "crash (%s)" e

let pp_outcome ppf = function
  | Agree -> Format.pp_print_string ppf "agree"
  | Skip m -> Format.fprintf ppf "skip (%s)" m
  | Bug { kind; detail } -> Format.fprintf ppf "BUG %a: %s" pp_kind kind detail

let bug kind fmt = Format.kasprintf (fun detail -> Bug { kind; detail }) fmt

(* The independent checker's verdict on a returned schedule. *)
let invalid s =
  match Schedule.check s with
  | Ok () -> None
  | Error vs ->
      Some
        (Format.asprintf "%a"
           (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
              Schedule.pp_violation)
           vs)

(* Keeping the node budget well below the default makes 2000-trial
   campaigns cheap; exhaustion is a Skip, not a verdict. *)
let bb_budget = 60_000

let all_schedules_feasible fs =
  match Branch_bound.feasible ~budget:bb_budget fs with
  | Some b -> Ok b
  | None -> Error "branch-and-bound budget exhausted"

let to_flow_shop (shop : Recurrence_shop.t) =
  if not (Visit.is_traditional shop.visit) then None
  else Some (Flow_shop.make ~processors:shop.visit.Visit.processors shop.tasks)

(* Shared shape of the two optimal traditional-shop algorithms: a
   claimed-optimal solver against the all-schedules oracle. *)
let run_optimal ~solver_name ~schedule fs =
  match schedule fs with
  | `Ok s -> (
      match invalid s with
      | Some v -> bug Invalid_schedule "%s schedule rejected by checker: %s" solver_name v
      | None -> (
          match all_schedules_feasible fs with
          | Ok true | Error _ -> Agree
          | Ok false ->
              bug Claimed_feasible
                "%s returned a checker-clean schedule on an instance branch and bound proves \
                 infeasible"
                solver_name))
  | `Infeasible -> (
      match all_schedules_feasible fs with
      | Ok false -> Agree
      | Ok true ->
          bug Claimed_infeasible "%s claims infeasible; branch and bound found a schedule"
            solver_name
      | Error m -> Skip m)
  | `Precondition p -> bug Precondition "%s rejected a generated instance: %s" solver_name p

let run_eedf fs =
  run_optimal ~solver_name:"EEDF"
    ~schedule:(fun fs ->
      match Eedf.schedule fs with
      | Ok s -> `Ok s
      | Error `Infeasible -> `Infeasible
      | Error `Not_identical_length -> `Precondition "not identical-length")
    fs

let run_a fs =
  run_optimal ~solver_name:"Algorithm A"
    ~schedule:(fun fs ->
      match Algo_a.schedule fs with
      | Ok s -> `Ok s
      | Error `Infeasible -> `Infeasible
      | Error `Not_homogeneous -> `Precondition "not homogeneous")
    fs

let run_r (shop : Recurrence_shop.t) =
  let oracle () =
    match Exhaustive_recurrence.feasible shop with
    | b -> Ok b
    | exception Invalid_argument m -> Error m
  in
  match Algo_r.schedule shop with
  | Ok s -> (
      match invalid s with
      | Some v -> bug Invalid_schedule "Algorithm R schedule rejected by checker: %s" v
      | None -> (
          match oracle () with
          | Ok true | Error _ -> Agree
          | Ok false ->
              bug Claimed_feasible
                "Algorithm R returned a checker-clean schedule the exhaustive oracle proves \
                 infeasible"))
  | Error `Infeasible -> (
      match oracle () with
      | Ok true ->
          bug Claimed_infeasible "Algorithm R claims infeasible; exhaustive search found a \
                                  schedule"
      | Ok false -> Agree
      | Error m -> Skip m)
  | Error e -> bug Precondition "Algorithm R rejected a generated instance: %a" Algo_r.pp_error e

(* Algorithm H and friends.  H may fail on feasible instances (the paper
   names the two causes), so only positive claims are falsifiable. *)
let run_h fs =
  let permutation_oracle () =
    match Exhaustive.permutation_feasible fs with
    | b -> Ok b
    | exception Invalid_argument m -> Error m
  in
  let h_verdict =
    match Algo_h.schedule fs with
    | Ok s -> (
        match invalid s with
        | Some v -> bug Invalid_schedule "Algorithm H schedule rejected by checker: %s" v
        | None -> (
            (* A feasible compacted schedule is a permutation schedule, so
               the earliest-start schedule of its order must be feasible
               too — the permutation oracle has to find it. *)
            match permutation_oracle () with
            | Ok true | Error _ -> Agree
            | Ok false ->
                bug Claimed_feasible
                  "Algorithm H returned a feasible schedule but the exhaustive oracle finds no \
                   feasible permutation order"))
    | Error `Inflated_infeasible -> Agree
    | Error (`Compacted_infeasible s) ->
        (* H gave up because its own compacted schedule is infeasible; the
           attached witness must indeed violate a constraint. *)
        if Schedule.is_feasible s then
          bug Invalid_schedule
            "Algorithm H reported its compacted schedule infeasible, but the checker accepts it"
        else Agree
  in
  let portfolio_verdict () =
    match H_portfolio.schedule_opt fs with
    | None -> Agree
    | Some s -> (
        match invalid s with
        | Some v -> bug Invalid_schedule "portfolio schedule rejected by checker: %s" v
        | None -> Agree)
  in
  let solver_verdict () =
    match Solver.solve fs with
    | Solver.Feasible (s, _) -> (
        match invalid s with
        | Some v -> bug Invalid_schedule "solver front-end schedule rejected by checker: %s" v
        | None -> Agree)
    | Solver.Proved_infeasible _ -> (
        match all_schedules_feasible fs with
        | Ok true ->
            bug Claimed_infeasible
              "solver front end proved infeasible; branch and bound found a schedule"
        | Ok false | Error _ -> Agree)
    | Solver.Heuristic_failed -> Agree
  in
  match h_verdict with
  | Bug _ as b -> b
  | first -> (
      match portfolio_verdict () with
      | Bug _ as b -> b
      | _ -> ( match solver_verdict () with Bug _ as b -> b | _ -> first))

module SM = E2e_core.Single_machine

let pp_rats ppf rs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
    (fun ppf r -> Format.pp_print_string ppf (Rat.to_string r))
    ppf (Array.to_list rs)

let starts_equal a b = Array.length a = Array.length b && Array.for_all2 Rat.equal a b

let pp_regions pp_region ppf rs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_region ppf rs

let pp_ref_region ppf (r : Single_machine_ref.region) =
  Format.fprintf ppf "(%s, %s)" (Rat.to_string r.left) (Rat.to_string r.right)

let ref_jobs (jobs : SM.job array) =
  Array.map
    (fun (j : SM.job) ->
      { Single_machine_ref.id = j.id; release = j.release; deadline = j.deadline })
    jobs

(* The engine's regions and optimal starts against the scan-based
   reference's on the same jobs (ids are positions: EDF tie-breaks read
   them), for exact rational equality; [who] names the engine side in
   a report. *)
let against_ref ~who ~tau ~regions ~starts jobs =
  let regions_verdict =
    match (regions, Single_machine_ref.forbidden_regions ~tau jobs) with
    | Error `Infeasible, Error `Infeasible -> Agree
    | Ok fast, Ok slow ->
        if
          List.length fast = List.length slow
          && List.for_all2
               (fun (f : SM.region) (s : Single_machine_ref.region) ->
                 Rat.equal f.left s.left && Rat.equal f.right s.right)
               fast slow
        then Agree
        else
          bug Divergence "forbidden regions differ: %s [%a] vs ref [%a]" who
            (pp_regions SM.pp_region) fast (pp_regions pp_ref_region) slow
    | Ok _, Error `Infeasible ->
        bug Divergence "%s built regions where the reference proves infeasible" who
    | Error `Infeasible, Ok _ ->
        bug Divergence "%s claims infeasible during regions; reference succeeds" who
  in
  match regions_verdict with
  | Bug _ as b -> b
  | _ -> (
      match (Lazy.force starts, Single_machine_ref.schedule ~tau jobs) with
      | Error `Infeasible, Error `Infeasible -> Agree
      | Ok fast, Ok slow ->
          if starts_equal fast slow then Agree
          else bug Divergence "schedules differ: %s [%a] vs ref [%a]" who pp_rats fast pp_rats slow
      | Ok _, Error `Infeasible ->
          bug Divergence "%s schedules an instance the reference rejects" who
      | Error `Infeasible, Ok _ ->
          bug Divergence "%s rejects an instance the reference schedules" who)

(* Engine-vs-engine differential: the indexed Single_machine against the
   retained scan-based reference, on the EEDF reduction of the instance.
   Every output — region list, optimal starts, plain-EDF ablation — must
   match for exact rational equality; there is no tolerance and no
   oracle budget, so any mismatch is a bug. *)
let run_eedf_fast fs =
  match Flow_shop.is_identical_length fs with
  | None -> bug Precondition "eedf-fast generator produced a non-identical-length shop"
  | Some tau -> (
      let jobs = Eedf.single_machine_jobs fs ~tau in
      match
        against_ref ~who:"fast" ~tau ~regions:(SM.forbidden_regions ~tau jobs)
          ~starts:(lazy (SM.schedule ~tau jobs)) (ref_jobs jobs)
      with
      | Bug _ as b -> b
      | _ -> (
          match
            ( SM.edf_schedule_no_regions ~tau jobs,
              Single_machine_ref.edf_schedule_no_regions ~tau (ref_jobs jobs) )
          with
          | Error (`Deadline_missed i), Error (`Deadline_missed i') ->
              if i = i' then Agree
              else
                bug Divergence "plain EDF misses different first deadlines: fast %d vs ref %d" i i'
          | Ok fast, Ok slow ->
              if starts_equal fast slow then Agree
              else
                bug Divergence "plain-EDF schedules differ: fast [%a] vs ref [%a]" pp_rats fast
                  pp_rats slow
          | Ok _, Error (`Deadline_missed i) ->
              bug Divergence "plain EDF: fast meets all deadlines, reference misses job %d" i
          | Error (`Deadline_missed i), Ok _ ->
              bug Divergence "plain EDF: fast misses job %d, reference meets all deadlines" i))

(* Grown-shop differential: drive {!Solver.Incremental.extend} the way
   the admission service does, on growing shops in the cache's
   canonical (release, deadline) order, and require the handle's
   {!E2e_core.Single_machine.Inc} state to agree with the scan-based
   {!Single_machine_ref} after {e every} extension — regions, start
   times and feasibility verdicts, under exact rational equality.  As
   in admission, a handle exists only for a feasible shop and an
   infeasible extension is checked and then discarded, so the next
   extension grows the last feasible handle.  The reference shares no
   code with the engine, so appends, rebuilds and both packing kernels
   are checked independently.  The chunking is a fixed function of the
   instance, so a failing trial replays from its seed alone. *)
let run_eedf_inc (fs : Flow_shop.t) =
  let module Warm = Solver.Incremental in
  match Flow_shop.is_identical_length fs with
  | None -> bug Precondition "eedf-inc generator produced a non-identical-length shop"
  | Some tau ->
      let m = fs.processors in
      let slack = Rat.mul_int tau (m - 1) in
      (* Tasks as (release, deadline) pairs; a shop lists them stably
         sorted, so committed tasks precede equal fresh ones. *)
      let shop_of tasks =
        Flow_shop.of_params
          (Array.of_list
             (List.map
                (fun (r, d) -> (r, d, Array.make m tau))
                (List.stable_sort
                   (fun (r, d) (r', d') ->
                     match Rat.compare r r' with 0 -> Rat.compare d d' | c -> c)
                   tasks)))
      in
      let exception Found of outcome in
      let guard step st shop =
        match
          against_ref ~who:(step ^ " warm state") ~tau ~regions:(SM.Inc.regions st)
            ~starts:(lazy (SM.Inc.solve st))
            (ref_jobs (Eedf.single_machine_jobs shop ~tau))
        with
        | Agree -> ()
        | o -> raise (Found o)
      in
      let all =
        List.map (fun (t : E2e_model.Task.t) -> (t.release, t.deadline)) (Array.to_list fs.tasks)
      in
      let n = List.length all in
      (* The base is a cold solve, like a submit: the first half of the
         tasks (or up to the first that fits alone), greedily keeping
         those that leave it feasible. *)
      let base, rest =
        List.fold_left
          (fun (base, rest) (i, t) ->
            if i >= (n + 1) / 2 && Option.is_some (snd base) then (base, t :: rest)
            else
              match Warm.solve_with_state (shop_of (t :: fst base)) with
              | _, Some h -> ((t :: fst base, Some h), rest)
              | _, None -> (base, t :: rest))
          (([], None), [])
          (List.mapi (fun i t -> (i, t)) all)
      in
      match base with
      | _, None -> Skip "no task fits alone"
      | committed, Some h -> (
          let committed = ref committed and handle = ref h in
          (* One admission [add]: extend the last feasible handle by
             [fresh] and keep the result only when it is feasible. *)
          let add step fresh =
            let tasks = !committed @ fresh in
            let shop = shop_of tasks in
            match Warm.extend !handle shop with
            | None -> raise (Found (bug Divergence "%s: extend refused a grown shop" step))
            | Some h ->
                guard step (Warm.state h) shop;
                if Result.is_ok (SM.Inc.solve (Warm.state h)) then begin
                  committed := tasks;
                  handle := h
                end
          in
          try
            guard "base" (Warm.state h) (shop_of !committed);
            (* Grow by chunks of one to three of the tasks the base
               left out, in instance order; they land anywhere in the
               canonical order. *)
            let rec grow i = function
              | [] -> ()
              | tasks ->
                  let k = 1 + (((i * 7) + 3) mod 3) in
                  let chunk = List.filteri (fun j _ -> j < k) tasks in
                  add (Printf.sprintf "grow#%d" i) chunk;
                  grow (i + 1) (List.filteri (fun j _ -> j >= k) tasks)
            in
            grow 0 (List.rev rest);
            (* Past-horizon extends with the append test's bounds met
               exactly (d0 - tau = max deadline, d0 - 2 tau = r0) or
               missed by a quarter unit, and with r0 equal to the max
               release, on the reduced instance: appends that all pass,
               a failing one, one that passes and one that then fails
               (one rebuild of the whole shop), one failing first. *)
            let quarter = Rat.make 1 4 and tau2 = Rat.add tau tau in
            let arrival tasks case =
              let top pick =
                List.fold_left (fun acc t -> Rat.max acc (pick t)) (pick (List.hd tasks)) tasks
              in
              let r_max = top fst and d_max = Rat.sub (top snd) slack in
              (* Releases up to [low] let the deadline bound be the tight
                 one; above it only the window bound can be. *)
              let low = Rat.sub d_max tau in
              let under =
                if Rat.(low > r_max) then Rat.div (Rat.add r_max low) (Rat.of_int 2)
                else Rat.add r_max quarter
              in
              let over = Rat.add (Rat.max r_max low) quarter in
              let release, deadline =
                match case with
                | `Deadline_at -> (under, Rat.add d_max tau)
                | `Deadline_short -> (under, Rat.sub (Rat.add d_max tau) quarter)
                | `Window_at -> (over, Rat.add over tau2)
                | `Window_short -> (over, Rat.sub (Rat.add over tau2) quarter)
                | `Release_at -> (r_max, Rat.max (Rat.add d_max tau) (Rat.add r_max tau2))
              in
              (release, Rat.add deadline slack)
            in
            List.iteri
              (fun i cases ->
                let fresh =
                  List.fold_left
                    (fun fresh case -> fresh @ [ arrival (!committed @ fresh) case ])
                    [] cases
                in
                add (Printf.sprintf "arrive#%d" i) fresh)
              [
                [ `Window_at; `Deadline_at ];
                [ `Deadline_short ];
                [ `Window_at; `Window_short ];
                [ `Release_at; `Deadline_at ];
              ];
            Agree
          with Found o -> o)

let run cls (shop : Recurrence_shop.t) =
  let traditional run_fs =
    match to_flow_shop shop with
    | Some fs -> run_fs fs
    | None -> Skip "visit sequence is not traditional"
  in
  match
    match cls with
    | Gen.Eedf -> traditional run_eedf
    | Gen.A -> traditional run_a
    | Gen.H -> traditional run_h
    | Gen.R -> run_r shop
    | Gen.Eedf_fast -> traditional run_eedf_fast
    | Gen.Eedf_inc -> traditional run_eedf_inc
  with
  | outcome -> outcome
  | exception exn -> Bug { kind = Crash (Printexc.to_string exn); detail = "solver raised" }
