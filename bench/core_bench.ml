(* Hot-path micro-benchmarks with a tracked baseline: the indexed
   single-machine engine (heap EDF + interval-set regions) against the
   retained scan-based reference, plus the solvers that ride on it and
   the admission service's request path.

   Run with: dune exec bench/core_bench.exe -- --out BENCH_core.json
   Pass `--trials small` for the CI smoke configuration (sizes 10 and
   100, fewer repetitions).

   Protocol: fixed Prng seeds, pre-generated instance pools, [warmup]
   untimed runs, then [trials] timed runs whose extremes are dropped
   (trimmed mean).  The reference engine is O(n^3) in its region pass,
   so it is only timed up to n = 1000 — the cap is recorded in the
   output, not silently applied. *)

module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Recurrence_shop = E2e_model.Recurrence_shop
module Eedf = E2e_core.Eedf
module Algo_a = E2e_core.Algo_a
module Algo_h = E2e_core.Algo_h
module Gen = E2e_workload.Feasible_gen
module Admission = E2e_serve.Admission
module Cache = E2e_serve.Cache
module SM = E2e_core.Single_machine
module Ref = E2e_fuzz.Single_machine_ref

let pool ~seed ~count f =
  let g = Prng.create seed in
  let instances = Array.init count (fun _ -> f g) in
  let i = ref 0 in
  fun () ->
    let x = instances.(!i mod count) in
    incr i;
    x

(* One timed trial = [reps] calls; reported time is per call. *)
let time_trial f reps =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let trimmed_mean ~warmup ~trials ~reps f =
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let ts = Array.init trials (fun _ -> time_trial f reps) in
  Array.sort Float.compare ts;
  let lo, hi = if trials >= 4 then (1, trials - 2) else (0, trials - 1) in
  let sum = ref 0. in
  for i = lo to hi do
    sum := !sum +. ts.(i)
  done;
  !sum /. float_of_int (hi - lo + 1)

type row = { family : string; n : int; mean_s : float; trials : int; reps : int }

(* {1 Workloads} *)

let identical_pool n =
  pool ~seed:(1000 + n) ~count:8 (fun g ->
      Gen.identical_length g ~n ~m:4 ~tau:Rat.one ~window:(2 * n))

let eedf_case next () = Eedf.schedule (next ())

(* The reference engine runs on the same reduced single-machine instance
   the production EEDF solves internally. *)
let eedf_ref_case next =
  let jobs shop = Eedf.single_machine_jobs shop ~tau:Rat.one in
  fun () ->
    let shop = next () in
    let js =
      Array.map
        (fun (j : E2e_core.Single_machine.job) ->
          { Ref.id = j.id; release = j.release; deadline = j.deadline })
        (jobs shop)
    in
    Ref.schedule ~tau:Rat.one js

let algo_a_case n =
  let next =
    pool ~seed:(2000 + n) ~count:8 (fun g -> Gen.homogeneous g ~n ~m:4 ~max_tau:3 ~window:(2 * n))
  in
  fun () -> Algo_a.schedule (next ())

let algo_h_case n =
  let next =
    pool ~seed:(3000 + n) ~count:8 (fun g ->
        Gen.generate g
          { Gen.n_tasks = n; n_processors = 4; mean_tau = 1.0; stdev = 0.5; slack_factor = 1.0 })
  in
  fun () -> Algo_h.schedule (next ())

(* Admission request path: n requests (submits, permuted resubmits after
   a drop, adds, queries) through the sequential engine with the
   canonical cache and the structural keyer — the configuration the
   batcher uses per batch member. *)
let serve_log n =
  let instance g =
    Recurrence_shop.of_traditional
      (Gen.generate g
         { Gen.n_tasks = 2 + Prng.int g 4; n_processors = 2 + Prng.int g 2; mean_tau = 1.0;
           stdev = 0.5; slack_factor = 1.5 })
  in
  let g = Prng.create (4000 + n) in
  List.init n (fun i ->
        let shop = "s" ^ string_of_int (Prng.int g 8) in
        match Prng.int g 10 with
        | 0 | 1 | 2 | 3 -> Admission.Submit { shop; instance = instance g }
        | 4 | 5 -> (
            Admission.Add
              {
                shop;
                tasks =
                  List.init (1 + Prng.int g 2) (fun _ ->
                      let r = Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int 4) in
                      ( r,
                        Rat.add r (Rat.of_int (8 + Prng.int g 8)),
                        Array.make 2 Rat.one )) })
      | 6 -> Admission.Query { shop }
      | 7 -> Admission.Drop { shop }
      | _ -> Admission.Submit { shop = "s" ^ string_of_int (i mod 8); instance = instance g })

let serve_case n =
  let log = serve_log n in
  fun () ->
    let cache = Cache.create ~capacity:4096 in
    let keyer = Cache.Keyer.create () in
    List.fold_left
      (fun t req -> fst (Admission.apply ~cache ~keyer t req))
      Admission.empty log

(* {1 Incremental workloads}

   A resident identical-length shop solved once into a warm {!SM.Inc}
   state.  States are persistent, so every call starts from the same
   resident handle — no drift across trials.  [inc_append] times a
   past-horizon arrival, the one edit the warm state takes exactly;
   [inc_make] times the rebuild every other edit is: a scratch
   [Inc.make] of the resident set plus one task arriving near the
   committed horizon, the serve pattern. *)
let inc_setup n =
  let g = Prng.create (5000 + n) in
  let fs = Gen.identical_length g ~n ~m:4 ~tau:Rat.one ~window:(2 * n) in
  let st = SM.Inc.make ~tau:Rat.one (Eedf.single_machine_jobs fs ~tau:Rat.one) in
  let jobs = SM.Inc.jobs st in
  let lo = Rat.of_int (2 * n * 3 / 4) and hi = Rat.of_int (2 * n) in
  let deltas =
    Array.init 16 (fun _ ->
        let r = Prng.rat_uniform g ~den:4 lo hi in
        (Prng.int g (n + 1), r, Rat.add r (Rat.of_int (4 + Prng.int g 8))))
  in
  (* Past-horizon arrivals, the serving pattern: each release above
     every resident release, each deadline at least tau above every
     resident deadline and two tau above its release. *)
  let top pick = Array.fold_left (fun acc j -> Rat.max acc (pick j)) (pick jobs.(0)) jobs in
  let r_max = top (fun (j : SM.job) -> j.release) and d_max = top (fun j -> j.deadline) in
  let arrivals =
    Array.init 16 (fun k ->
        let r = Rat.add r_max (Rat.make (k + 1) 4) in
        let d = Rat.max (Rat.add d_max Rat.one) (Rat.add r (Rat.of_int 2)) in
        (r, Rat.add d (Rat.of_int (Prng.int g 8))))
  in
  (st, jobs, deltas, arrivals)

let inc_append_case (st, _, _, arrivals) =
  let i = ref 0 in
  fun () ->
    let r, d = arrivals.(!i mod 16) in
    incr i;
    match SM.Inc.append st ~release:r ~deadline:d with
    | Some st -> SM.Inc.solve st
    | None -> failwith "inc_append: arrival is not past the horizon"

let inc_make_case (_, jobs, deltas, _) =
  let n = Array.length jobs in
  let edited (at, r, d) =
    Array.init (n + 1) (fun k ->
        if k < at then { jobs.(k) with SM.id = k }
        else if k = at then { SM.id = k; release = r; deadline = d }
        else { jobs.(k - 1) with SM.id = k })
  in
  let i = ref 0 in
  fun () ->
    let delta = deltas.(!i mod 16) in
    incr i;
    SM.Inc.solve (SM.Inc.make ~tau:Rat.one (edited delta))

(* End-to-end admission cost of one [Add] on a resident shop: the warm
   engine holds the committed solve's [Machine] handle (the warm
   path), the cold engine holds the same committed shop with the handle
   stripped, so the identical request takes the full-solve path. *)
let serve_inc_setup n =
  let g = Prng.create (6000 + n) in
  let fs = Gen.identical_length g ~n ~m:2 ~tau:Rat.one ~window:(2 * n) in
  let submit =
    Admission.Submit { shop = "resident"; instance = Recurrence_shop.of_traditional fs }
  in
  let warm = fst (Admission.apply Admission.empty submit) in
  if Admission.warm_resident warm = 0 then
    failwith "serve_inc_setup: resident submit left no warm handle";
  let cold =
    match Admission.prepare Admission.empty submit with
    | Error _ -> failwith "serve_inc_setup: resident submit rejected"
    | Ok p ->
        let decision, _ = Admission.decide_prepared p in
        Admission.commit ~prepared:p ~state:None Admission.empty submit (Some decision)
  in
  let lo = Rat.of_int (2 * n * 3 / 4) and hi = Rat.of_int (2 * n) in
  let adds =
    Array.init 16 (fun _ ->
        let r = Prng.rat_uniform g ~den:4 lo hi in
        Admission.Add
          {
            shop = "resident";
            tasks = [ (r, Rat.add r (Rat.of_int (4 + Prng.int g 8)), Array.make 2 Rat.one) ];
          })
  in
  (warm, cold, adds)

let serve_inc_case engine adds =
  let i = ref 0 in
  fun () ->
    let req = adds.(!i mod 16) in
    incr i;
    Admission.apply engine req

(* {1 Harness} *)

let reps_for ~n ~base = Stdlib.max 1 (base / n)

let run_all ~small =
  let sizes = if small then [ 10; 100 ] else [ 10; 100; 1000; 5000 ] in
  let ref_cap = 1000 in
  let def_warmup = if small then 1 else 2 in
  let def_trials = if small then 3 else 7 in
  let rep_base = if small then 200 else 1000 in
  let case ?(warmup = def_warmup) ?(trials = def_trials) family n f =
    let reps = reps_for ~n ~base:rep_base in
    let mean_s = trimmed_mean ~warmup ~trials ~reps f in
    Printf.eprintf "%-12s n=%-5d %12.1f us/call\n%!" family n (mean_s *. 1e6);
    { family; n; mean_s; trials; reps }
  in
  let rows = ref [] in
  let push r = rows := r :: !rows in
  List.iter
    (fun n ->
      let next = identical_pool n in
      push (case "eedf" n (eedf_case next));
      if n <= ref_cap then begin
        let next = identical_pool n in
        (* The cubic reference takes tens of seconds per call at
           n = 1000; a single warmup and three trials keep the full run
           bounded while the variance stays well under the 5x margin of
           interest. *)
        let warmup, trials = if n > 100 then (1, 3) else (def_warmup, def_trials) in
        push (case ~warmup ~trials "eedf_ref" n (eedf_ref_case next))
      end;
      push (case "algo_a" n (algo_a_case n));
      push (case "algo_h" n (algo_h_case n));
      push (case "serve_admission" n (serve_case n));
      (* The rebuild rows repeat a full solve per call, so the largest
         size runs with trimmed repetitions. *)
      let inc = inc_setup n in
      let warmup, trials = if n > 1000 then (1, 3) else (def_warmup, def_trials) in
      push (case ~warmup ~trials "inc_append" n (inc_append_case inc));
      push (case ~warmup ~trials "inc_make" n (inc_make_case inc));
      let warm, cold, adds = serve_inc_setup n in
      push (case ~warmup ~trials "serve_admission_incremental" n (serve_inc_case warm adds));
      push (case ~warmup ~trials "serve_admission_scratch" n (serve_inc_case cold adds)))
    sizes;
  (List.rev !rows, sizes, ref_cap)

(* Per size, the mean time of a [slow] family over a [fast] one: the
   scan-based reference over the indexed engine, and a from-scratch
   solve of a one-task-edited set over the warm past-horizon append. *)
let ratio_keys =
  [
    ("speedup_eedf_vs_ref", "eedf_ref", "eedf");
    ("speedup_append_vs_make", "inc_make", "inc_append");
  ]

let ratios ~slow ~fast rows =
  let mean family n =
    List.find_map
      (fun r -> if r.family = family && r.n = n && r.mean_s > 0. then Some r.mean_s else None)
      rows
  in
  List.filter_map
    (fun { family; n; mean_s; _ } ->
      if family <> slow then None else Option.map (fun t -> (n, mean_s /. t)) (mean fast n))
    rows

let json_of rows sizes ref_cap ~small =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"mode\":\"%s\",\"sizes\":[%s],\"eedf_ref_max_n\":%d,\"rows\":["
       (if small then "small" else "full")
       (String.concat "," (List.map string_of_int sizes))
       ref_cap);
  List.iteri
    (fun i { family; n; mean_s; trials; reps } ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"family\":\"%s\",\"n\":%d,\"mean_us\":%.3f,\"trials\":%d,\"reps\":%d}"
           family n (mean_s *. 1e6) trials reps))
    rows;
  List.iter
    (fun (key, slow, fast) ->
      Buffer.add_string buf (Printf.sprintf "],\"%s\":[" key);
      List.iteri
        (fun i (n, ratio) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "{\"n\":%d,\"ratio\":%.2f}" n ratio))
        (ratios ~slow ~fast rows))
    ratio_keys;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let () =
  let out = ref "BENCH_core.json" in
  let small = ref false in
  let rec parse = function
    | [] -> ()
    | "--out" :: path :: rest ->
        out := path;
        parse rest
    | "--trials" :: ("small" | "Small") :: rest ->
        small := true;
        parse rest
    | "--trials" :: ("full" | "Full") :: rest ->
        small := false;
        parse rest
    | arg :: _ ->
        Printf.eprintf "usage: core_bench [--out FILE] [--trials full|small] (got %S)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rows, sizes, ref_cap = run_all ~small:!small in
  let json = json_of rows sizes ref_cap ~small:!small in
  Out_channel.with_open_text !out (fun oc ->
      Out_channel.output_string oc json;
      Out_channel.output_char oc '\n');
  List.iter
    (fun (key, slow, fast) ->
      List.iter
        (fun (n, ratio) -> Printf.printf "%s at n=%d: %.1fx\n" key n ratio)
        (ratios ~slow ~fast rows))
    ratio_keys;
  Printf.printf "wrote %s\n" !out
