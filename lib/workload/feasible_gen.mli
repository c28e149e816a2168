(** Random task sets that are feasible by construction.

    This is the reconstruction of the workload behind Figures 9 and 10:
    "we fed Algorithm H with task sets that have feasible schedules",
    sweeping the amount of slack per task and the variance of processing
    times on a processor.

    Construction: draw every subtask time from a truncated normal
    distribution with mean [mean_tau] and standard deviation
    [stdev * mean_tau], rounded to a 1/100 grid; build the earliest-start
    schedule of a random task order (a witness schedule); then wrap each
    task's release time and deadline around its witness span so that the
    window is [max((1 + slack_factor) * tau_i, span_i)] long, placed
    uniformly at random around the span.  The witness schedule meets
    every constraint, so a feasible schedule exists; the nominal slack
    [(d_i - r_i) - tau_i] is [slack_factor * tau_i] whenever the witness
    span does not already exceed the window.

    {b Domain safety.} Every generator here is a pure function of the
    {!E2e_prng.Prng.t} it is handed — no hidden global state — so
    generators may run concurrently on different domains as long as each
    domain uses its own generator.  The parallel experiment engine
    derives one independent stream per Monte Carlo trial with
    {!E2e_prng.Prng.of_path}, which is what makes the figure sweeps
    byte-identical at every [-j]/[--jobs] setting. *)

type params = {
  n_tasks : int;
  n_processors : int;
  mean_tau : float;  (** Mean subtask processing time (the paper's unit). *)
  stdev : float;  (** Relative standard deviation: 0.1, 0.2, 0.5 in Fig. 9. *)
  slack_factor : float;  (** Nominal slack as a multiple of the task's total processing time. *)
}

val generate : E2e_prng.Prng.t -> params -> E2e_model.Flow_shop.t
(** One random instance; guaranteed to admit a feasible schedule. *)

val generate_with_witness :
  E2e_prng.Prng.t -> params -> E2e_model.Flow_shop.t * E2e_schedule.Schedule.t
(** Also returns the witness schedule (always checker-feasible). *)

val permute : E2e_prng.Prng.t -> E2e_model.Recurrence_shop.t -> E2e_model.Recurrence_shop.t
(** The same instance with its tasks relabelled by one
    {!E2e_prng.Prng.permutation} draw: a canonical-cache hit that is
    not a textual repeat. *)

(** {1 Generators for property tests} *)

val identical_length :
  E2e_prng.Prng.t -> n:int -> m:int -> tau:E2e_rat.Rat.t -> window:int -> E2e_model.Flow_shop.t
(** Identical-length task set with random rational release times and
    deadlines inside [\[0, window\]] (feasibility {e not} guaranteed —
    for optimality cross-checks). *)

val homogeneous :
  E2e_prng.Prng.t -> n:int -> m:int -> max_tau:int -> window:int -> E2e_model.Flow_shop.t
(** Homogeneous task set with random per-processor times in
    [\[1/2, max_tau\]] and random windows (feasibility not guaranteed). *)

val arbitrary :
  E2e_prng.Prng.t -> n:int -> m:int -> max_tau:int -> window:int -> E2e_model.Flow_shop.t
(** Fully arbitrary task set (feasibility not guaranteed). *)

val single_loop_visit :
  E2e_prng.Prng.t -> max_stages:int -> E2e_model.Visit.t
(** A random visit sequence containing exactly one simple loop (the
    precondition of Algorithm R): a fresh prefix, a reused block, fresh
    middle processors, the block again, and a fresh suffix.  At most
    [max_stages] stages ([>= 3]). *)

val periodic :
  E2e_prng.Prng.t -> n:int -> m:int -> utilization:float -> E2e_model.Periodic_shop.t
(** Random periodic job system: periods drawn log-uniformly from
    [\[8, 200\]] on a 1/4 grid; the target per-processor [utilization] is
    split across jobs by random weights and converted to processing
    times.  The realised utilization of every processor is within
    rounding of the target. *)
