module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Periodic_shop = E2e_model.Periodic_shop
module Schedule = E2e_schedule.Schedule

type params = {
  n_tasks : int;
  n_processors : int;
  mean_tau : float;
  stdev : float;
  slack_factor : float;
}

(* Processing times live on a 1/100 grid so all derived quantities stay
   exact rationals with small denominators. *)
let grid = 100

let rat_of_sample x = Rat.make (int_of_float (Float.round (x *. float_of_int grid))) grid

let draw_tau g p =
  let stdev = p.stdev *. p.mean_tau in
  let lo = 0.05 *. p.mean_tau in
  let x = Prng.truncated_normal g ~mean:p.mean_tau ~stdev ~lo in
  Rat.max (Rat.make 1 grid) (rat_of_sample x)

let generate_with_witness g p =
  if p.n_tasks <= 0 || p.n_processors <= 0 then invalid_arg "Feasible_gen.generate";
  let taus = Array.init p.n_tasks (fun _ -> Array.init p.n_processors (fun _ -> draw_tau g p)) in
  (* Witness: earliest-start schedule of a random order with open windows. *)
  let far = Rat.of_int 1_000_000 in
  let provisional =
    Flow_shop.make ~processors:p.n_processors
      (Array.init p.n_tasks (fun i ->
           Task.make ~id:i ~release:Rat.zero ~deadline:far ~proc_times:taus.(i)))
  in
  let order = Prng.permutation g p.n_tasks in
  let witness = Schedule.forward_pass (Recurrence_shop.of_traditional provisional) ~order in
  let slack = Rat.of_float ~max_den:1000 p.slack_factor in
  let windows =
    Array.init p.n_tasks (fun i ->
        let start = Schedule.start witness ~task:i ~stage:0 in
        let finish = Schedule.completion witness i in
        let span = Rat.sub finish start in
        let tau_total = Rat.sum_array taus.(i) in
        let window = Rat.max (Rat.mul tau_total (Rat.add Rat.one slack)) span in
        let u = Prng.rat_uniform g ~den:grid Rat.zero Rat.one in
        let release = Rat.sub start (Rat.mul u (Rat.sub window span)) in
        (release, Rat.add release window))
  in
  (* Shift so the earliest release is 0, as in the paper's examples. *)
  let shift =
    Array.fold_left (fun acc (r, _) -> Rat.min acc r) Rat.zero windows
  in
  let shift = Rat.neg shift in
  let tasks =
    Array.init p.n_tasks (fun i ->
        let r, d = windows.(i) in
        Task.make ~id:i ~release:(Rat.add r shift) ~deadline:(Rat.add d shift)
          ~proc_times:taus.(i))
  in
  let shop = Flow_shop.make ~processors:p.n_processors tasks in
  let shifted_starts =
    Array.map (Array.map (fun s -> Rat.add s shift)) witness.Schedule.starts
  in
  let witness = Schedule.of_flow_shop shop shifted_starts in
  (shop, witness)

let generate g p = fst (generate_with_witness g p)

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

let identical_length g ~n ~m ~tau ~window =
  let tasks =
    Array.init n (fun i ->
        let release = Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int window) in
        let min_window = Rat.mul_int tau m in
        let extra = Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int window) in
        Task.make ~id:i ~release
          ~deadline:Rat.(release + min_window + extra)
          ~proc_times:(Array.make m tau))
  in
  Flow_shop.make ~processors:m tasks

let homogeneous g ~n ~m ~max_tau ~window =
  let taus =
    Array.init m (fun _ -> Prng.rat_uniform g ~den:2 (Rat.make 1 2) (Rat.of_int max_tau))
  in
  let total = Rat.sum_array taus in
  let tasks =
    Array.init n (fun i ->
        let release = Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int window) in
        let extra = Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int window) in
        Task.make ~id:i ~release
          ~deadline:Rat.(release + total + extra)
          ~proc_times:(Array.copy taus))
  in
  Flow_shop.make ~processors:m tasks

let single_loop_visit g ~max_stages =
  if max_stages < 3 then invalid_arg "Feasible_gen.single_loop_visit: needs >= 3 stages";
  (* Structure: prefix (a) | block (r) | middle (q - r) | block again | suffix.
     Stage count = a + q + r + s with q >= r >= 1. *)
  let rec draw () =
    let a = Prng.int g 3 in
    let r = 1 + Prng.int g 2 in
    let middle = Prng.int g 3 in
    let s = Prng.int g 3 in
    (* Avoid the degenerate [p; p] immediate self-repeat. *)
    if a + r + middle + r + s > max_stages || (r = 1 && middle = 0) then draw ()
    else (a, r, middle, s)
  in
  let a, r, middle, s = draw () in
  let seq =
    Array.concat
      [
        Array.init a Fun.id;
        Array.init r (fun i -> a + i);
        Array.init middle (fun i -> a + r + i);
        Array.init r (fun i -> a + i);
        Array.init s (fun i -> a + r + middle + i);
      ]
  in
  let visit = E2e_model.Visit.make seq in
  assert (E2e_model.Visit.single_loop visit <> None);
  visit

let periodic g ~n ~m ~utilization =
  if utilization <= 0.0 then invalid_arg "Feasible_gen.periodic: nonpositive utilization";
  let log_lo = log 8.0 and log_hi = log 200.0 in
  let periods =
    Array.init n (fun _ ->
        let p = exp (Prng.uniform g log_lo log_hi) in
        Rat.max (Rat.of_int 8) (Rat.make (int_of_float (Float.round (p *. 4.0))) 4))
  in
  let jobs = Array.init n (fun i -> (periods.(i), Array.make m Rat.zero)) in
  (* Split the target utilization column-wise with fresh weights per
     processor so processors differ. *)
  for j = 0 to m - 1 do
    let weights = Array.init n (fun _ -> 0.2 +. Prng.float g 1.0) in
    let wsum = Array.fold_left ( +. ) 0.0 weights in
    for i = 0 to n - 1 do
      let u_ij = utilization *. weights.(i) /. wsum in
      let tau = u_ij *. Rat.to_float periods.(i) in
      let tau = Rat.max (Rat.make 1 grid) (rat_of_sample tau) in
      let _, proc_times = jobs.(i) in
      proc_times.(j) <- Rat.min tau periods.(i)
    done
  done;
  Periodic_shop.of_params jobs

let arbitrary g ~n ~m ~max_tau ~window =
  let tasks =
    Array.init n (fun i ->
        let proc_times =
          Array.init m (fun _ -> Prng.rat_uniform g ~den:4 (Rat.make 1 4) (Rat.of_int max_tau))
        in
        let total = Rat.sum_array proc_times in
        let release = Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int window) in
        let extra = Prng.rat_uniform g ~den:4 Rat.zero (Rat.of_int window) in
        Task.make ~id:i ~release ~deadline:Rat.(release + total + extra) ~proc_times)
  in
  Flow_shop.make ~processors:m tasks
