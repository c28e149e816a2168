(** Tasks with end-to-end timing constraints.

    A task [T_i] is a chain of subtasks executed in turn on the
    processors of a flow shop.  Its timing constraints are end-to-end: a
    release time [r_i] before which the first subtask may not start and a
    deadline [d_i] by which the last subtask must complete (Section 2 of
    the paper).  Subtask indices are 0-based throughout the library;
    subtask [j] of the paper's [T_i(j+1)]. *)

type rat = E2e_rat.Rat.t

type t = {
  id : int;  (** Position of the task in its task set; also its name. *)
  release : rat;  (** End-to-end release time [r_i]. *)
  deadline : rat;  (** End-to-end deadline [d_i]. *)
  proc_times : rat array;
      (** [proc_times.(j)] is the processing time of the j-th subtask, in
          visit order.  For a traditional m-processor flow shop this has
          length m; for a flow shop with recurrence it has the length of
          the visit sequence. *)
}

val make : id:int -> release:rat -> deadline:rat -> proc_times:rat array -> t
(** Validates that all processing times are positive and that
    [release <= deadline].
    @raise Invalid_argument otherwise, also when comparing [release]
    with [deadline] would overflow. *)

val stages : t -> int
(** Number of subtasks. *)

val total_time : t -> rat
(** Total processing time [tau_i], the sum of all subtask times. *)

val slack : t -> rat
(** [d_i - r_i - tau_i]: the paper's slack time of a task. *)

val effective_release : t -> int -> rat
(** [effective_release t j] is [r_ij = r_i + sum_{k < j} tau_ik], the
    earliest instant subtask [j] can start. *)

val effective_deadline : t -> int -> rat
(** [effective_deadline t j] is [d_ij = d_i - sum_{k > j} tau_ik], the
    latest instant subtask [j] may complete so the task can still meet
    [d_i]. *)

val is_feasible_alone : t -> bool
(** Whether the task could meet its deadline on an idle system,
    i.e. [slack >= 0]. *)

val pp : Format.formatter -> t -> unit
