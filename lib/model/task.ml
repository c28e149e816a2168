module Rat = E2e_rat.Rat

type rat = Rat.t
type t = { id : int; release : rat; deadline : rat; proc_times : rat array }

let make ~id ~release ~deadline ~proc_times =
  if Array.length proc_times = 0 then invalid_arg "Task.make: no subtasks";
  Array.iter
    (fun tau -> if Rat.(tau <= zero) then invalid_arg "Task.make: nonpositive processing time")
    proc_times;
  (* Far-apart denominators can make the exact comparison overflow. *)
  (match Rat.(deadline < release) with
  | true -> invalid_arg "Task.make: deadline before release"
  | false -> ()
  | exception Rat.Overflow -> invalid_arg "Task.make: release and deadline out of range");
  { id; release; deadline; proc_times }

let stages t = Array.length t.proc_times
let total_time t = Rat.sum_array t.proc_times
let slack t = Rat.(t.deadline - t.release - total_time t)

let effective_release t j =
  assert (j >= 0 && j < stages t);
  let before = ref t.release in
  for k = 0 to j - 1 do
    before := Rat.add !before t.proc_times.(k)
  done;
  !before

let effective_deadline t j =
  assert (j >= 0 && j < stages t);
  let after = ref t.deadline in
  for k = j + 1 to stages t - 1 do
    after := Rat.sub !after t.proc_times.(k)
  done;
  !after

let is_feasible_alone t = Rat.(slack t >= zero)

let pp ppf t =
  Format.fprintf ppf "T%d [r=%a d=%a tau=(%a)]" t.id Rat.pp t.release Rat.pp t.deadline
    (Format.pp_print_array ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Rat.pp)
    t.proc_times
