module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Feasible_gen = E2e_workload.Feasible_gen
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Stripes = E2e_serve.Stripes
module Protocol = E2e_serve.Protocol

type finding = {
  trial : int;
  index : int;
  request : string;
  batched : string;
  reference : string;
  log : string list;
  shrink_steps : int;
}

type report = { seed : int; trials : int; agreed : int; findings : finding list }

let code = 6

(* ------------------------------------------------------------------ *)
(* Request-log generation: a pure function of the stream.             *)

let gen_instance g =
  let n = 2 + Prng.int g 3 and m = 2 + Prng.int g 2 in
  Recurrence_shop.of_traditional
    (Feasible_gen.generate g
       { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5;
         slack_factor = 1.0 +. Prng.float g 1.0 })

(* One task's window tightened below its total processing time: the
   candidate is provably infeasible (negative slack), exercising the
   [Rejected]-with-certificate path. *)
let tighten (shop : Recurrence_shop.t) =
  let tasks =
    Array.mapi
      (fun i (t : Task.t) ->
        if i = 0 then
          let total = Rat.sum_array t.proc_times in
          Task.make ~id:t.id ~release:t.release
            ~deadline:Rat.(add t.release (div_int total 2))
            ~proc_times:t.proc_times
        else t)
      shop.Recurrence_shop.tasks
  in
  Recurrence_shop.make ~visit:shop.visit tasks

let gen_log g =
  let requests = 6 + Prng.int g 15 in
  let live = ref [] (* (shop, instance), most recent first *) in
  let fresh = ref 0 in
  let fresh_shop () =
    incr fresh;
    Printf.sprintf "s%d" !fresh
  in
  let pick () =
    match !live with [] -> None | l -> Some (List.nth l (Prng.int g (List.length l)))
  in
  List.init requests (fun _ ->
      let p = Prng.float g 1.0 in
      if p < 0.35 || !live = [] then begin
        let shop = fresh_shop () and instance = gen_instance g in
        live := (shop, instance) :: !live;
        Admission.Submit { shop; instance }
      end
      else if p < 0.50 then begin
        let _, earlier = Option.get (pick ()) in
        let shop = fresh_shop () and instance = Feasible_gen.permute g earlier in
        live := (shop, instance) :: !live;
        Admission.Submit { shop; instance }
      end
      else if p < 0.57 then
        (* Infeasible by construction: the rejected path. *)
        Admission.Submit { shop = fresh_shop (); instance = tighten (gen_instance g) }
      else if p < 0.60 then
        (* Duplicate name: the request-error path. *)
        let shop, _ = Option.get (pick ()) in
        Admission.Submit { shop; instance = gen_instance g }
      else if p < 0.62 then begin
        (* Near-[2^62] times whose sums leave Rat's range: the solve
           overflows and both interpreters must answer the same error
           (an Add also takes the warm delta path first). *)
        let huge k = (Rat.zero, Rat.of_int max_int, Array.make k (Rat.of_int max_int)) in
        if Prng.bool g then
          let release, deadline, proc_times = huge 2 in
          Admission.Submit
            { shop = fresh_shop ();
              instance =
                Recurrence_shop.of_traditional
                  (Flow_shop.make ~processors:2
                     [| Task.make ~id:0 ~release ~deadline ~proc_times |]) }
        else
          let shop, committed = Option.get (pick ()) in
          let k = Array.length committed.Recurrence_shop.tasks.(0).Task.proc_times in
          Admission.Add { shop; tasks = [ huge k ] }
      end
      else if p < 0.80 then begin
        let shop, committed = Option.get (pick ()) in
        let k = Array.length committed.Recurrence_shop.tasks.(0).Task.proc_times in
        let count = 1 + Prng.int g 2 in
        let tasks =
          List.init count (fun _ ->
              let taus =
                Array.init k (fun _ ->
                    Prng.rat_uniform g ~den:100 (Rat.make 1 2) (Rat.of_int 2))
              in
              let total = Rat.sum_array taus in
              let release = Prng.rat_uniform g ~den:100 Rat.zero (Rat.of_int 4) in
              let window = Rat.mul_int total (2 + Prng.int g 3) in
              (release, Rat.add release window, taus))
        in
        Admission.Add { shop; tasks }
      end
      else if p < 0.90 then
        let shop = match pick () with Some (s, _) -> s | None -> "none" in
        Admission.Query { shop }
      else begin
        let shop = match pick () with Some (s, _) -> s | None -> "none" in
        live := List.filter (fun (s, _) -> s <> shop) !live;
        Admission.Drop { shop }
      end)

(* ------------------------------------------------------------------ *)
(* Differential comparison                                            *)

let outcome_sig o = Protocol.render_reply ~schedules:false o

(* Batched, cached, [jobs] domains. *)
let run_batched ~jobs log =
  let config =
    { Batcher.queue_capacity = max 1 (List.length log); batch = 4;
      budget = Admission.Unbounded; jobs; cache_capacity = 64 }
  in
  Stripes.process_log (Stripes.create ~config ()) log

(* Sequential, cache off, one domain: the reference interpreter. *)
let run_reference log =
  let _, replies =
    List.fold_left
      (fun (state, acc) req ->
        let state, reply = Admission.apply state req in
        (state, reply :: acc))
      (Admission.empty, []) log
  in
  Array.of_list (List.rev_map (fun r -> Batcher.Reply r) replies)

(* First index where the two interpreters' replies differ. *)
let mismatch ~jobs log =
  let batched = run_batched ~jobs log and reference = run_reference log in
  let n = Array.length batched in
  let rec go i =
    if i >= n then None
    else
      let b = outcome_sig batched.(i) and r = outcome_sig reference.(i) in
      if String.equal b r then go (i + 1) else Some (i, b, r)
  in
  go 0

(* Greedy deletion: drop any request whose removal preserves the
   disagreement, to a fixpoint (or the step bound). *)
let shrink ~jobs ~max_shrink log =
  let remove i l = List.filteri (fun j _ -> j <> i) l in
  let steps = ref 0 in
  let rec pass log i =
    if !steps >= max_shrink || i >= List.length log then log
    else
      let candidate = remove i log in
      match mismatch ~jobs candidate with
      | Some _ ->
          incr steps;
          pass candidate i
      | None -> pass log (i + 1)
  in
  let rec fix log =
    let log' = pass log 0 in
    if List.length log' < List.length log && !steps < max_shrink then fix log' else log'
  in
  (fix log, !steps)

let run ?(jobs = 1) ?(max_shrink = 1000) ~seed ~trials () =
  let agreed = ref 0 and findings = ref [] in
  for trial = 0 to trials - 1 do
    let g = Prng.of_path [| seed; code; trial |] in
    let log = gen_log g in
    match mismatch ~jobs log with
    | None -> incr agreed
    | Some _ ->
        let log, shrink_steps = shrink ~jobs ~max_shrink log in
        let index, batched, reference =
          match mismatch ~jobs log with
          | Some (i, b, r) -> (i, b, r)
          | None -> assert false (* shrink preserves the disagreement *)
        in
        let rendered = List.map Protocol.render_request log in
        findings :=
          { trial; index; request = List.nth rendered index; batched; reference;
            log = rendered; shrink_steps }
          :: !findings
  done;
  { seed; trials; agreed = !agreed; findings = List.rev !findings }

let pp_finding ppf f =
  Format.fprintf ppf "  trial %d: reply %d disagrees after %d shrink step(s)@." f.trial
    f.index f.shrink_steps;
  Format.fprintf ppf "    request:   %s@." f.request;
  Format.fprintf ppf "    batched:   %s@." f.batched;
  Format.fprintf ppf "    reference: %s@." f.reference;
  Format.fprintf ppf "    log:@.";
  List.iter (fun line -> Format.fprintf ppf "      | %s@." line) f.log

let pp_report ppf r =
  Format.fprintf ppf "serve: %d trials, %d agreed, %d disagreement(s)" r.trials r.agreed
    (List.length r.findings);
  if r.findings <> [] then begin
    Format.pp_print_newline ppf ();
    List.iter (pp_finding ppf) r.findings
  end
