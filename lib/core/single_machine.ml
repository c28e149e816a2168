module Rat = E2e_rat.Rat
module Obs = E2e_obs.Obs
module Heap = E2e_ds.Heap
module Interval_set = E2e_ds.Interval_set

type rat = Rat.t
type job = { id : int; release : rat; deadline : rat }
type region = { left : rat; right : rat }

let pp_region ppf r = Format.fprintf ppf "(%a, %a)" Rat.pp r.left Rat.pp r.right

(* {1 The engine}

   One solved state ([Inc.state]) backs every single-machine solve:
   [schedule], [forbidden_regions], Algorithms A and H, flow-shop EEDF
   and the warm serving handle all read an [Inc.make] state.

   Forbidden regions.  The classical derivation packs, for every release
   r and every deadline d, the jobs with release >= r and deadline <= d
   as late as possible before d (avoiding regions already found); if
   that packing starts at c, then (c - tau, r) is forbidden (and c < r
   proves infeasibility).  One backward pass per release subsumes the
   whole deadline loop: walk the jobs with release >= r in
   decreasing-deadline order, keeping the running packing start

     s := adjust_down (min (deadline_j, s) - tau)

   (each job must end both by its own deadline and by the start of the
   job packed after it).  Take the last job whose own deadline was the
   binding constraint, say with deadline d*: the suffix from that job on
   is exactly the latest packing of the jobs with deadline <= d*, and
   every per-deadline packing restricted this way starts no earlier than
   the full pass does.  So the final s is the minimum over all deadlines
   of the per-(r, d) packing starts, and the single region (s - tau, r)
   is the union of the per-deadline regions for r (they share the right
   endpoint r).  Passes run over the distinct releases in descending
   order, each on top of the regions the higher passes found.

   Two kernels compute a pass's s, chosen by job count ([fold_max_jobs]):

   - the fold walks every job in decreasing-deadline order: O(n) per
     release, nothing to build;

   - the tree evaluates the same value as

       min over active deadlines d of  g^{N(d)}(d)

     where [g x = adjust_down (x - tau)], [N(d)] counts active jobs
     (release [>= r]) with deadline [<= d], and "active deadline" means
     one owned by at least one active job: [g] is monotone and commutes
     with [min], so unrolling the fold splits it per deadline, and
     within an equal-deadline run more applications of the strictly
     decreasing [g] only lower the value, leaving the run's last job —
     the full count [N(d)] — as the minimum.  Without regions
     [g^k(d) = d - k tau]; each region hop can lower a walk by at most
     the region's length, and a walk crosses each region at most once
     (values strictly decrease), so the true value lies within
     [Lambda = measure regions] of the no-region value.  A lazy min
     segment tree keeps the no-region values [d - N(d) tau] (plus a
     Fenwick tree for the counts); a pass reads the tree minimum,
     evaluates [g^{N(d)}(d)] exactly — batching the subtraction steps
     between regions with one floor division — only for the candidates
     within [Lambda] of it, and takes the exact minimum.  O(log n +
     candidates) per release after an O(n log n) build.

   Both return the exact fold value, so the choice never changes a
   result; the [eedf-fast] and [eedf-inc] fuzz classes draw instances
   on both sides of the constant and compare against the scan-based
   reference.

   Dispatch: EDF on two heaps, [pending] by release time and [ready] by
   (deadline, release, id), dispatching only outside the regions.

   Appends: a job appended past the horizon — above every release, and
   with a deadline far enough above every deadline — is proved not to
   touch any resident pass ([Inc.append]), so it keeps the region set
   and only extends the dispatch.  Every other edit is an [Inc.make]. *)

module Inc = struct
  module Iset = Interval_set

  (* Fenwick tree of active-job counts per deadline position (1-based
     internally). *)
  module Fenwick = struct
    type t = int array (* length m + 1 *)

    let create m : t = Array.make (m + 1) 0

    let add (t : t) i v =
      let n = Array.length t - 1 in
      let i = ref (i + 1) in
      while !i <= n do
        t.(!i) <- t.(!i) + v;
        i := !i + (!i land - !i)
      done

    (* Number of active jobs with deadline <= position [i]. *)
    let prefix (t : t) i =
      let s = ref 0 and i = ref (i + 1) in
      while !i > 0 do
        s := !s + t.(!i);
        i := !i - (!i land - !i)
      done;
      !s
  end

  (* Lazy min segment tree over deadline positions.  A leaf is [Some v]
     for an active deadline (value [d - N(d) tau]) and [None] for an
     inactive one; [range_add k] records "N grew by k" on a leaf range,
     i.e. subtracts [k tau] from the active leaves, lazily. *)
  module Vtree = struct
    type t = {
      size : int; (* power of two >= leaf count, >= 1 *)
      min_ : Rat.t option array; (* 1-based, 2*size nodes *)
      pend : int array; (* pending count per internal node *)
      tau : rat;
    }

    let create ~tau m =
      let size = ref 1 in
      while !size < m do
        size := 2 * !size
      done;
      { size = !size; min_ = Array.make (2 * !size) None; pend = Array.make (2 * !size) 0; tau }

    let apply t i k =
      if k <> 0 then begin
        (match t.min_.(i) with
        | Some v -> t.min_.(i) <- Some (Rat.sub v (Rat.mul_int t.tau k))
        | None -> ());
        if i < t.size then t.pend.(i) <- t.pend.(i) + k
      end

    let push t i =
      let k = t.pend.(i) in
      if k <> 0 then begin
        apply t (2 * i) k;
        apply t ((2 * i) + 1) k;
        t.pend.(i) <- 0
      end

    let pull t i =
      t.min_.(i) <-
        (match (t.min_.(2 * i), t.min_.((2 * i) + 1)) with
        | None, x | x, None -> x
        | Some a, Some b -> Some (Rat.min a b))

    let range_add t l r k =
      if l <= r && k <> 0 then begin
        let rec go i lo hi =
          if r < lo || hi < l then ()
          else if l <= lo && hi <= r then apply t i k
          else begin
            push t i;
            let mid = (lo + hi) / 2 in
            go (2 * i) lo mid;
            go ((2 * i) + 1) (mid + 1) hi;
            pull t i
          end
        in
        go 1 0 (t.size - 1)
      end

    (* Activate a leaf with its absolute value: pending counts on the
       path are pushed down first, so the assignment is not retroactively
       shifted by adds that predate the activation (the absolute value
       already accounts for them via the Fenwick count). *)
    let assign t pos v =
      let rec go i lo hi =
        if lo = hi then t.min_.(i) <- Some v
        else begin
          push t i;
          let mid = (lo + hi) / 2 in
          if pos <= mid then go (2 * i) lo mid else go ((2 * i) + 1) (mid + 1) hi;
          pull t i
        end
      in
      go 1 0 (t.size - 1)

    let root_min t = t.min_.(1)

    (* Visit every active leaf whose value is <= threshold. *)
    let iter_le t threshold f =
      let rec go i lo hi =
        match t.min_.(i) with
        | None -> ()
        | Some v when Rat.compare v threshold > 0 -> ()
        | Some v ->
            if lo = hi then f lo v
            else begin
              push t i;
              let mid = (lo + hi) / 2 in
              go (2 * i) lo mid;
              go ((2 * i) + 1) (mid + 1) hi
            end
      in
      go 1 0 (t.size - 1)
  end

  (* g^k(x) for g(x) = adjust_down regions (x - tau), batching the plain
     subtraction steps between regions: from [x], the first region the
     walk can enter is the rightmost one with left < x (higher regions
     start at or above x and the walk only descends), so one floor
     division finds how many steps reach it.  O(regions crossed) region
     lookups. *)
  let eval_gk regions ~tau x k =
    let rec go x k =
      if k = 0 then x
      else
        let j = Iset.rightmost_left_below regions x in
        if j < 0 then Rat.sub x (Rat.mul_int tau k)
        else
          let _, rt = Iset.get regions j in
          (* Smallest i >= 1 with x - i tau < rt (strict: the interval is
             open, landing exactly on rt stays outside). *)
          let i0 =
            let q = Rat.floor (Rat.div (Rat.sub x rt) tau) + 1 in
            if q < 1 then 1 else q
          in
          if i0 > k then Rat.sub x (Rat.mul_int tau k)
          else
            (* The landing value y < rt may sit strictly inside region j
               — or inside a lower region entirely cleared by the last
               tau-step — so settle it with a general lookup.  Either
               way the settled value is <= l, so each recursion consumes
               at least one region: O(regions crossed) total. *)
            let y = Rat.sub x (Rat.mul_int tau i0) in
            go (Iset.adjust_down regions y) (k - i0)
    in
    go x k

  (* A pass kernel is a pair [(activate, start)]: [activate p] admits job
     [p] into the current pass, and [start regions lambda r] returns the
     fold value s over the admitted jobs for release [r], given the
     regions so far and their measure [lambda]. *)

  let fold_kernel ~tau (jobs : job array) =
    let by_deadline = Array.copy jobs in
    Array.stable_sort (fun (a : job) b -> Rat.compare b.deadline a.deadline) by_deadline;
    (* The largest deadline caps nothing, so it seeds the running start. *)
    let start regions _lambda r =
      let s = ref by_deadline.(0).deadline in
      for i = 0 to Array.length by_deadline - 1 do
        let j = by_deadline.(i) in
        if Rat.(j.release >= r) then
          s := Iset.adjust_down regions (Rat.sub (Rat.min j.deadline !s) tau)
      done;
      !s
    in
    (ignore, start)

  let tree_kernel ~tau (jobs : job array) =
    (* Distinct deadlines, ascending. *)
    let sorted = Array.map (fun (j : job) -> j.deadline) jobs in
    Array.stable_sort Rat.compare sorted;
    let m = ref 0 in
    Array.iteri
      (fun i d ->
        if i = 0 || not (Rat.equal d sorted.(i - 1)) then begin
          sorted.(!m) <- d;
          incr m
        end)
      sorted;
    let m = !m in
    let distinct = Array.sub sorted 0 m in
    let dpos d =
      let lo = ref 0 and hi = ref (m - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Rat.compare distinct.(mid) d < 0 then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let fen = Fenwick.create m in
    let tree = Vtree.create ~tau m in
    let active = Array.make m false in
    let activate p =
      let d = jobs.(p).deadline in
      let pos = dpos d in
      Fenwick.add fen pos 1;
      if active.(pos) then Vtree.range_add tree pos (m - 1) 1
      else begin
        Vtree.range_add tree (pos + 1) (m - 1) 1;
        Vtree.assign tree pos (Rat.sub d (Rat.mul_int tau (Fenwick.prefix fen pos)));
        active.(pos) <- true
      end
    in
    let start regions lambda _r =
      match Vtree.root_min tree with
      | None -> assert false (* at least one job was admitted *)
      | Some vmin ->
          let threshold = Rat.add vmin (Lazy.force lambda) in
          let best = ref None in
          Vtree.iter_le tree threshold (fun pos _ ->
              let tv = eval_gk regions ~tau distinct.(pos) (Fenwick.prefix fen pos) in
              match !best with Some b when Rat.(b <= tv) -> () | _ -> best := Some tv);
          Option.get !best
    in
    (activate, start)

  (* The job count up to which the fold kernel runs.  The fold costs
     O(n) per release; the tree costs an O(n log n) build, then
     O(log n + candidates) per release.  Region pass per call, fold vs
     tree (median of alternating blocks, 2-core x86-64 VM, OCaml 5.1),
     on the core bench's identical-length shops (4 stages, window 2n,
     so nearly every release is distinct): 2.4 vs 4.0 us at n=8, 10.8
     vs 12.7 at n=16, 23.4 vs 25.4 at n=24, 32.7 vs 31.8 at n=28, 38.7
     vs 36.0 at n=32, 83 vs 60 at n=48, 1356 vs 443 at n=225 and 30.3
     vs 2.7 ms at n=1000.  So the serving mix's shops (at most 16 jobs)
     run the fold and growing identical-length shops (200-260 jobs) the
     tree. *)
  let fold_max_jobs = 24

  (* The region set of [jobs], or [None] when some pass proves
     infeasibility. *)
  let compute_core ~tau (jobs : job array) =
    let n = Array.length jobs in
    (* Jobs by release, descending. *)
    let by_release = Array.copy jobs in
    Array.stable_sort (fun (a : job) b -> Rat.compare b.release a.release) by_release;
    let activate, start =
      if n <= fold_max_jobs then fold_kernel ~tau jobs else tree_kernel ~tau jobs
    in
    let rec pass idx regions lambda =
      if idx >= n then Some regions
      else begin
        let r = by_release.(idx).release in
        let idx = ref idx in
        while !idx < n && Rat.equal by_release.(!idx).release r do
          activate by_release.(!idx).id;
          incr idx
        done;
        let s = start regions lambda r in
        if Rat.(s < r) then begin
          if Obs.enabled () then
            Obs.event "single_machine.infeasible_window"
              ~fields:
                [ ("release", Obs.Str (Rat.to_string r)); ("packing_start", Obs.Str (Rat.to_string s)) ];
          None
        end
        else
          let left = Rat.sub s tau in
          if Rat.(left < r) then begin
            if Obs.enabled () then
              Obs.event "single_machine.forbidden_region"
                ~fields:[ ("left", Obs.Str (Rat.to_string left)); ("right", Obs.Str (Rat.to_string r)) ];
            let regions = Iset.add regions ~left ~right:r in
            pass !idx regions (lazy (Iset.measure regions))
          end
          else pass !idx regions lambda
      end
    in
    pass 0 Iset.empty (lazy Rat.zero)

  type dispatch = {
    order : int array; (* positions in dispatch order *)
    starts : rat array; (* by position *)
    missed : int option; (* first position, in dispatch order, whose deadline is missed *)
  }

  let no_dispatch = { order = [||]; starts = [||]; missed = None }

  let pending_cmp (a : job) (b : job) =
    let c = Rat.compare a.release b.release in
    if c <> 0 then c else compare a.id b.id

  let ready_cmp (a : job) (b : job) =
    let c = Rat.compare a.deadline b.deadline in
    let c = if c <> 0 then c else Rat.compare a.release b.release in
    if c <> 0 then c else compare a.id b.id

  (* Priority-driven EDF dispatch on two heaps: [pending] orders the
     not-yet-released jobs by release time, [ready] orders the released
     ones by (deadline, release, id) — the heap pop is exactly the EDF
     choice with the deterministic tie-break.  [advance] postpones
     candidate dispatch instants (forbidden-region hopping for the
     optimal variant, identity for the plain-EDF ablation).

     [prefix] is a finished dispatch of the first [k] positions that
     EDF would also run first on [jobs] ([append]'s case): its starts
     are kept, the heap frontier is rebuilt exactly as the loop would
     have left it (ready = later jobs released by the last prefix start,
     machine free at its finish), and the loop continues.  [no_dispatch]
     is the from-scratch run.  Job ids must be positions. *)
  let dispatch_from ~tau ~advance (jobs : job array) prefix =
    let n = Array.length jobs in
    let np = Array.length prefix.order in
    let order = Array.make n 0 and starts = Array.make n Rat.zero in
    Array.blit prefix.order 0 order 0 np;
    Array.blit prefix.starts 0 starts 0 np;
    let missed = ref prefix.missed in
    let pending = Heap.create ~cmp:pending_cmp in
    let ready = Heap.create ~cmp:ready_cmp in
    let t_last = if np = 0 then None else Some starts.(order.(np - 1)) in
    for p = np to n - 1 do
      let j = jobs.(p) in
      match t_last with
      | Some tl when Rat.(j.release <= tl) -> Heap.push ready j
      | _ -> Heap.push pending j
    done;
    (* The machine starts at the earliest release so time starts sane. *)
    let free =
      ref
        (match t_last with
        | Some tl -> Rat.add tl tau
        | None -> ( match Heap.peek pending with Some j -> j.release | None -> Rat.zero))
    in
    for step = np to n - 1 do
      (* Candidate dispatch time: machine free, and at least one release.
         Every ready job was released before the machine last went busy,
         so a non-empty ready queue pins the candidate to [free]. *)
      let t =
        ref
          (if Heap.is_empty ready then
             match Heap.peek pending with
             | Some j -> Rat.max !free j.release
             | None -> assert false
           else !free)
      in
      let rec settle () =
        let t' = advance !t in
        if Rat.(t' > !t) then begin
          t := t';
          settle ()
        end
      in
      settle ();
      (* Everything released by the dispatch instant competes. *)
      let rec migrate () =
        match Heap.peek pending with
        | Some j when Rat.(j.release <= !t) ->
            ignore (Heap.pop pending);
            Heap.push ready j;
            migrate ()
        | _ -> ()
      in
      migrate ();
      match Heap.pop ready with
      | None -> assert false
      | Some j ->
          starts.(j.id) <- !t;
          order.(step) <- j.id;
          let finish = Rat.add !t tau in
          free := finish;
          if Obs.enabled () then begin
            Obs.incr "single_machine.dispatches";
            Obs.event "single_machine.dispatch"
              ~fields:
                [
                  ("job", Obs.Int j.id);
                  ("t", Obs.Float (Rat.to_float !t));
                  ("deadline", Obs.Float (Rat.to_float j.deadline));
                ]
          end;
          if Rat.(finish > j.deadline) && !missed = None then begin
            if Obs.enabled () then begin
              Obs.incr "single_machine.deadline_misses";
              Obs.event "single_machine.deadline_miss"
                ~fields:
                  [
                    ("job", Obs.Int j.id);
                    ("finish", Obs.Float (Rat.to_float finish));
                    ("deadline", Obs.Float (Rat.to_float j.deadline));
                  ]
            end;
            missed := Some j.id
          end
    done;
    { order; starts; missed = !missed }

  type state = {
    tau : rat;
    jobs : job array; (* ids = positions, caller order *)
    solved : (Iset.t * dispatch) option; (* None iff a pass proved infeasibility *)
  }

  let tau st = st.tau
  let n_jobs st = Array.length st.jobs
  let jobs st = Array.copy st.jobs

  (* Solve [jobs] (ids already positions) from scratch. *)
  let build ~tau jobs =
    let solved =
      match Obs.span "single_machine.forbidden_regions" (fun () -> compute_core ~tau jobs) with
      | None -> None
      | Some regions ->
          if Obs.enabled () then
            Obs.event "single_machine.regions" ~fields:[ ("count", Obs.Int (Iset.cardinal regions)) ];
          let disp =
            Obs.span "single_machine.edf_dispatch" (fun () ->
                dispatch_from ~tau ~advance:(Iset.adjust_up regions) jobs no_dispatch)
          in
          Some (regions, disp)
    in
    { tau; jobs; solved }

  let make ~tau jobs =
    if Rat.(tau <= Rat.zero) then invalid_arg "Single_machine.Inc.make: tau must be positive";
    build ~tau (Array.mapi (fun i j -> { j with id = i }) jobs)

  (* Past-horizon arrival: a job (r0, d0) appended at position n onto a
     state with a region set, where r0 is strictly above every resident
     release, d0 - tau >= every resident deadline and d0 - 2 tau >= r0.
     Such an edit leaves every resident pass alone:

     1. The new job's own pass (the highest release) sees only itself,
        so s = d0 - tau >= r0 + tau: no region, no infeasibility.
     2. In every lower pass the resident leaves keep their counts,
        because d0 is above every resident deadline.  The new leaf's
        value is g^N(d0 - tau) >= g^N(d_max) >= the old s, because
        g x = adjust_down (x - tau) is monotone and d0 - tau lies above
        every region (they end at resident releases).  So each pass gets
        the same s and the same region.
     3. The new job has the latest deadline and the latest release, so
        EDF dispatches it after every resident job.

     Hence the region set survives and the dispatch resumes from the
     whole old order.  [None] when the test fails. *)
  let append st ~release ~deadline =
    match st.solved with
    | None -> None
    | Some (regions, disp) ->
        let tau = st.tau in
        let top = Rat.sub deadline tau in
        if
          Rat.(Rat.sub top tau >= release)
          && Array.for_all
               (fun (j : job) -> Rat.(release > j.release) && Rat.(top >= j.deadline))
               st.jobs
        then begin
          Obs.incr "eedf.inc_append";
          let jobs = Array.append st.jobs [| { id = Array.length st.jobs; release; deadline } |] in
          let disp = dispatch_from ~tau ~advance:(Iset.adjust_up regions) jobs disp in
          Some { st with jobs; solved = Some (regions, disp) }
        end
        else None

  let solve st =
    match st.solved with
    | Some (_, { missed = None; starts; _ }) -> Ok starts
    | Some (_, { missed = Some _; _ }) | None -> Error `Infeasible

  let regions st =
    match st.solved with
    | None -> Error `Infeasible
    | Some (iset, _) -> Ok (List.map (fun (left, right) -> { left; right }) (Iset.to_list iset))
end

let forbidden_regions ~tau jobs = Inc.regions (Inc.make ~tau jobs)

let schedule ~tau jobs =
  if Array.length jobs = 0 then Ok [||]
  else
    Obs.span "single_machine.schedule"
      ~fields:[ ("jobs", Obs.Int (Array.length jobs)) ]
      (fun () -> Inc.solve (Inc.make ~tau jobs))

let edf_schedule_no_regions ~tau jobs =
  let dense = Array.mapi (fun i j -> { j with id = i }) jobs in
  match Inc.dispatch_from ~tau ~advance:Fun.id dense Inc.no_dispatch with
  | { missed = Some i; _ } -> Error (`Deadline_missed jobs.(i).id)
  | { starts; missed = None; _ } -> Ok starts

let feasible_starts ~tau jobs starts =
  let n = Array.length jobs in
  Array.length starts = n
  && begin
       let ok = ref true in
       for i = 0 to n - 1 do
         if Rat.(starts.(i) < jobs.(i).release) then ok := false;
         if Rat.(Rat.add starts.(i) tau > jobs.(i).deadline) then ok := false
       done;
       let order = List.init n Fun.id in
       let order = List.sort (fun a b -> Rat.compare starts.(a) starts.(b)) order in
       let rec disjoint = function
         | a :: (b :: _ as rest) ->
             if Rat.(Rat.add starts.(a) tau > starts.(b)) then ok := false;
             disjoint rest
         | [] | [ _ ] -> ()
       in
       disjoint order;
       !ok
     end

let brute_force_feasible ~tau jobs =
  let n = Array.length jobs in
  let used = Array.make n false in
  (* For a fixed order, starting every job as early as possible is
     optimal, so feasibility = some order survives the greedy timing. *)
  let rec go scheduled free =
    if scheduled = n then true
    else
      let rec try_jobs i =
        if i >= n then false
        else if used.(i) then try_jobs (i + 1)
        else begin
          let s = Rat.max free jobs.(i).release in
          if Rat.(Rat.add s tau <= jobs.(i).deadline) then begin
            used.(i) <- true;
            let ok = go (scheduled + 1) (Rat.add s tau) in
            used.(i) <- false;
            if ok then true else try_jobs (i + 1)
          end
          else try_jobs (i + 1)
        end
      in
      try_jobs 0
  in
  let earliest =
    Array.fold_left (fun acc j -> Rat.min acc j.release) Rat.zero jobs
  in
  go 0 earliest
