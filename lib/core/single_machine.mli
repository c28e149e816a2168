(** Nonpreemptive scheduling of equal-length jobs on one machine with
    arbitrary rational release times and deadlines.

    This is the optimal O(n^2)-ish building block beneath every flow-shop
    algorithm in the paper: the earliest-deadline-first rule made optimal
    by the {e forbidden regions} of Garey, Johnson, Simons and Tarjan
    (SIAM J. Comput. 10(2), 1981).  A forbidden region is an open
    interval in which {e no} job may start: if the [m] jobs with release
    [>= r] and deadline [<= d] are packed as late as possible before [d]
    (avoiding regions already found), starting at [c], then any job
    starting in [(c - tau, r)] would keep the machine busy past [c] and
    make those [m] jobs late.  EDF that only dispatches outside the
    forbidden regions ("modified release times") is optimal.

    One engine, {!Inc}, solves every instance: {!schedule} and
    {!forbidden_regions} read an {!Inc.make} state, and the flow-shop
    solvers (EEDF, Algorithms A and H) and the warm serving handle share
    that code path.  Forbidden regions are built by one backward
    packing pass per distinct release time into a sorted
    disjoint-interval set (O(log n) lookup); each pass's packing start
    comes from a plain fold over the jobs on small instances and from a
    lazy min segment tree over deadline positions on large ones (the
    job count {!Inc.fold_max_jobs} picks, and both give the same
    value).  The EDF dispatch loop runs on two binary heaps (pending
    jobs by release, ready jobs by deadline), O(n log n).  The
    historical scan-based implementation is kept verbatim as
    [E2e_fuzz.Single_machine_ref]; the [eedf-fast] and [eedf-inc]
    differential-fuzz classes check the engine against it on every
    output, on both sides of the kernel constant. *)

type rat = E2e_rat.Rat.t

type job = { id : int; release : rat; deadline : rat }
(** [id] is the caller's index; results are reported in input order. *)

type region = { left : rat; right : rat }
(** The open interval [(left, right)]: starting strictly inside is
    forbidden; starting exactly at either endpoint is allowed. *)

val pp_region : Format.formatter -> region -> unit

val forbidden_regions :
  tau:rat -> job array -> (region list, [ `Infeasible ]) result
(** All forbidden regions, sorted by left endpoint, pairwise disjoint:
    [Inc.regions (Inc.make ~tau jobs)].  [`Infeasible] when some
    backward packing already proves that no schedule can meet all
    deadlines.
    @raise Invalid_argument when [tau <= 0]. *)

val schedule :
  tau:rat -> job array -> (rat array, [ `Infeasible ]) result
(** Optimal start times (input order): EDF over the forbidden regions,
    [Inc.solve (Inc.make ~tau jobs)].  [Error `Infeasible] means no
    feasible schedule exists at all — the algorithm is optimal.
    @raise Invalid_argument when [tau <= 0] and [jobs] is non-empty. *)

val edf_schedule_no_regions : tau:rat -> job array -> (rat array, [ `Deadline_missed of int ]) result
(** Plain priority-driven EDF without forbidden regions — the ablation
    baseline showing why the regions are needed, run by the engine's
    dispatcher with no region to hop.  Fails with the first job whose
    deadline is missed. *)

val feasible_starts : tau:rat -> job array -> rat array -> bool
(** Independent check that the given start times respect releases,
    deadlines and mutual exclusion. *)

val brute_force_feasible : tau:rat -> job array -> bool
(** Exhaustive search over all job orders (earliest-start timing per
    order, which is optimal for a fixed order).  Exponential; for tests
    on small instances only. *)

(** The solved state: the job set, its forbidden-region set and its
    EDF dispatch order.

    {!Inc.make} solves from scratch; {!Inc.append} adds a past-horizon
    arrival exactly, keeping the region set (provably unchanged) and
    only extending the dispatch from the committed order.  Every other
    edit is a new {!Inc.make}.  An appended state equals a from-scratch
    solve of the same job array: same regions, same start times, same
    feasibility verdicts, byte for byte.  The [eedf-inc] differential
    fuzz class checks this, through {!Solver.Incremental.extend},
    against the scan-based reference on growing shops. *)
module Inc : sig
  type state

  val make : tau:rat -> job array -> state
  (** Solve from scratch and retain the warm-start state.  Job ids are
      re-assigned to positions ([0..n-1] in input order).
      @raise Invalid_argument when [tau <= 0]. *)

  val solve : state -> (rat array, [ `Infeasible ]) result
  (** The current schedule (start times by position).  O(1): solving
      happened at construction / append time. *)

  val append : state -> release:rat -> deadline:rat -> state option
  (** The state with a job added at position [n_jobs], when it is a
      past-horizon arrival: the state has a region set (no pass proved
      infeasibility), [release] is above every resident release,
      [deadline - tau] is at or above every resident deadline and
      [deadline - 2 tau >= release].  Such a job leaves every resident
      region pass unchanged, so only the dispatch is extended (counter
      [eedf.inc_append]).  [None] when the test fails; the caller then
      rebuilds with {!make}.  The input state remains valid. *)

  val regions : state -> (region list, [ `Infeasible ]) result
  (** Current forbidden regions, sorted by left endpoint. *)

  val n_jobs : state -> int

  val jobs : state -> job array
  (** Current jobs in position order (a copy). *)

  val tau : state -> rat

  val fold_max_jobs : int
  (** The job count up to which a packing pass folds over the jobs;
      larger instances use the segment tree.  Exposed so the fuzz
      generators can draw instances on both sides of it. *)
end
