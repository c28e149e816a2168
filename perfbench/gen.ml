(* Workload request streams: pure functions of the seed, built in linear
   time before any set-up is timed.  A stream is a seeding prefix (sent
   during set-up, replies still checked) and a body the timed phases
   consume in order. *)

module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Flow_shop = E2e_model.Flow_shop
module Feasible_gen = E2e_workload.Feasible_gen
module Admission = E2e_serve.Admission

type stream = { seed_reqs : Admission.request array; body : Admission.request array }

(* A growable array with O(1) swap-removal: the live-shop set the mixed
   generator picks from.  (A list walked with [List.nth] per request
   would make generation quadratic in the stream length.) *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let length v = v.n
  let get v i = v.a.(i)

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (max 16 (2 * v.n)) x in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let swap_remove v i =
    v.n <- v.n - 1;
    v.a.(i) <- v.a.(v.n)
end

let flow_instance g ~n ~m ~slack =
  Recurrence_shop.of_traditional
    (Feasible_gen.generate g
       { Feasible_gen.n_tasks = n; n_processors = m; mean_tau = 1.0; stdev = 0.5;
         slack_factor = slack })

(* Same instance, tasks relabelled: a canonical-cache hit that is not a
   textual repeat. *)
let permute g (shop : Recurrence_shop.t) =
  let order = Prng.permutation g (Recurrence_shop.n_tasks shop) in
  let tasks =
    Array.mapi
      (fun p orig ->
        let t = shop.Recurrence_shop.tasks.(orig) in
        Task.make ~id:p ~release:t.release ~deadline:t.deadline ~proc_times:t.proc_times)
      order
  in
  Recurrence_shop.make ~visit:shop.visit tasks

(* [mixed]: the as-shipped traffic shape — 40% fresh 3-6-task submits,
   15% permuted and 10% exact resubmits under new names, 18% adds of 1-2
   tasks, 12% queries, 5% drops.  The solver does most of the work. *)
let mixed ~seed ~n =
  let g = Prng.of_path [| seed; 0x6d78 |] in
  let live = Vec.create () in
  let fresh = ref 0 in
  let submit instance =
    incr fresh;
    let shop = Printf.sprintf "m%d" !fresh in
    Vec.push live (shop, instance);
    Admission.Submit { shop; instance }
  in
  let pick () = Vec.get live (Prng.int g (Vec.length live)) in
  let add_tasks (committed : Recurrence_shop.t) =
    let k = Array.length committed.tasks.(0).Task.proc_times in
    List.init (1 + Prng.int g 2) (fun _ ->
        let taus =
          Array.init k (fun _ -> Prng.rat_uniform g ~den:100 (Rat.make 1 2) (Rat.of_int 2))
        in
        let release = Prng.rat_uniform g ~den:100 Rat.zero (Rat.of_int 4) in
        let window = Rat.mul_int (Rat.sum_array taus) (2 + Prng.int g 3) in
        (release, Rat.add release window, taus))
  in
  let body =
    Array.init n (fun _ ->
        let p = Prng.float g 1.0 in
        if p < 0.40 || Vec.length live = 0 then
          submit
            (flow_instance g ~n:(3 + Prng.int g 4) ~m:(3 + Prng.int g 2)
               ~slack:(1.0 +. Prng.float g 1.0))
        else if p < 0.55 then submit (permute g (snd (pick ())))
        else if p < 0.65 then submit (snd (pick ()))
        else if p < 0.83 then
          let shop, committed = pick () in
          Admission.Add { shop; tasks = add_tasks committed }
        else if p < 0.95 then Admission.Query { shop = fst (pick ()) }
        else begin
          let i = Prng.int g (Vec.length live) in
          let shop, _ = Vec.get live i in
          Vec.swap_remove live i;
          Admission.Drop { shop }
        end)
  in
  { seed_reqs = [||]; body }

(* [resubmit]: seed-then-resubmit over a working set of [shops] 12-16-task
   shops, small enough to stay resident in every shard's solver cache.
   Each steady step drops a shop and resubmits a permutation of its set,
   so canonicalize, cache, relabel and verify do the work.  Slack of 2 to
   3 times the processing time gets most shops admitted, so the admitted
   share is a property of the service rather than of which few hundred
   sets a seed happened to draw. *)
let resubmit ~seed ~shops ~n =
  let g = Prng.of_path [| seed; 0x7265 |] in
  let name k = Printf.sprintf "r%d" k in
  let instances =
    Array.init shops (fun _ ->
        flow_instance g ~n:(12 + Prng.int g 5) ~m:(3 + Prng.int g 2)
          ~slack:(2.0 +. Prng.float g 1.0))
  in
  let seed_reqs = Array.mapi (fun k instance -> Admission.Submit { shop = name k; instance }) instances in
  let body = Array.make n (Admission.Query { shop = name 0 }) in
  let i = ref 0 in
  while !i < n do
    let k = Prng.int g shops in
    body.(!i) <- Admission.Drop { shop = name k };
    if !i + 1 < n then
      body.(!i + 1) <- Admission.Submit { shop = name k; instance = permute g instances.(k) };
    i := !i + 2
  done;
  { seed_reqs; body }

(* A seed shop of the paper's identical-length class (m = 2, tau = 1),
   feasible by construction: releases spread at half utilisation over
   [0, 2 size], each deadline placed 0 to 8 units after the task's finish
   in the witness schedule that runs tasks in release order. *)
let grow_seed_shop g ~size =
  let releases =
    Array.init size (fun _ -> Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int (2 * size)))
  in
  let order = Array.init size Fun.id in
  Array.stable_sort (fun a b -> Rat.compare releases.(a) releases.(b)) order;
  let deadlines = Array.make size Rat.zero in
  let free1 = ref Rat.zero and free2 = ref Rat.zero in
  Array.iter
    (fun i ->
      let s1 = Rat.max releases.(i) !free1 in
      let s2 = Rat.max Rat.(s1 + one) !free2 in
      free1 := Rat.(s1 + one);
      free2 := Rat.(s2 + one);
      deadlines.(i) <- Rat.(s2 + one + Prng.rat_uniform g ~den:4 zero (of_int 8)))
    order;
  let tasks =
    Array.init size (fun i ->
        Task.make ~id:i ~release:releases.(i) ~deadline:deadlines.(i)
          ~proc_times:[| Rat.one; Rat.one |])
  in
  Recurrence_shop.of_traditional (Flow_shop.make ~processors:2 tasks)

let horizon (shop : Recurrence_shop.t) =
  Array.fold_left (fun h (t : Task.t) -> Rat.max h t.deadline) Rat.zero shop.tasks

(* [grow]: [shops] identical-length shops seeded at [size] tasks, then
   single-task adds past each shop's horizon (70%) mixed with queries
   (30%).  Adds are two units apart with windows of 3 to 5 units, so each
   fits after the last and is admitted.  Every [reset_every] adds a shop
   is dropped and its seed set resubmitted, so shop sizes stay in
   [size, size + reset_every] however long the run.  The delta path, full-schedule verify, canonical
   merge and O(n) reply rendering do the work. *)
let grow ~seed ~shops ~size ~reset_every ~n =
  let g = Prng.of_path [| seed; 0x6772 |] in
  let name k = Printf.sprintf "g%d" k in
  let seeds = Array.init shops (fun _ -> grow_seed_shop g ~size) in
  let base = Array.map horizon seeds in
  let adds = Array.make shops 0 in
  let seed_reqs = Array.mapi (fun k instance -> Admission.Submit { shop = name k; instance }) seeds in
  let pending = Queue.create () in
  let next () =
    if Queue.is_empty pending then begin
      let k = Prng.int g shops in
      if Prng.float g 1.0 < 0.3 then Queue.push (Admission.Query { shop = name k }) pending
      else if adds.(k) >= reset_every then begin
        adds.(k) <- 0;
        Queue.push (Admission.Drop { shop = name k }) pending;
        Queue.push (Admission.Submit { shop = name k; instance = seeds.(k) }) pending
      end
      else begin
        adds.(k) <- adds.(k) + 1;
        let offset = Rat.of_int (2 * adds.(k)) in
        let release =
          Rat.(base.(k) + offset + Prng.rat_uniform g ~den:4 zero (make 3 4))
        in
        let deadline = Rat.(release + of_int 3 + Prng.rat_uniform g ~den:4 zero (of_int 2)) in
        Queue.push
          (Admission.Add { shop = name k; tasks = [ (release, deadline, [| Rat.one; Rat.one |]) ] })
          pending
      end
    end;
    Queue.pop pending
  in
  { seed_reqs; body = Array.init n (fun _ -> next ()) }
