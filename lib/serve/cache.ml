module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Instance_io = E2e_model.Instance_io
module Visit = E2e_model.Visit
module Obs = E2e_obs.Obs

type canonical = {
  shop : Recurrence_shop.t;
  perm : int array;
  key : string;
  lines : string array;
}

let compare_task (a : Task.t) (b : Task.t) =
  let c = Rat.compare a.release b.release in
  if c <> 0 then c
  else
    let c = Rat.compare a.deadline b.deadline in
    if c <> 0 then c
    else
      let rec go j =
        if j >= Array.length a.proc_times then 0
        else
          let c = Rat.compare a.proc_times.(j) b.proc_times.(j) in
          if c <> 0 then c else go (j + 1)
      in
      go 0

(* The visit sequence is part of the key: Instance_io omits the identity
   sequence, and two shops with the same tasks but different sequences
   are different instances.  The header plus the per-task lines is
   byte-identical to the historical [Printf]-over-[Instance_io.to_string]
   rendering, so keys are stable across the incremental paths below. *)
let header (visit : Visit.t) =
  let buf = Buffer.create 32 in
  Buffer.add_string buf "visit:";
  Array.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Rat.add_int_to_buffer buf p)
    visit.Visit.sequence;
  Buffer.add_char buf '\n';
  if not (Visit.is_traditional visit) then begin
    Buffer.add_string buf "visit";
    Array.iter
      (fun p ->
        Buffer.add_char buf ' ';
        Rat.add_int_to_buffer buf (p + 1))
      visit.Visit.sequence;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let digest_lines visit lines =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header visit);
  Array.iter (Buffer.add_string buf) lines;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let sort_positions (tasks : Task.t array) =
  (* Stable, so equal tasks keep their relative order and the permutation
     is a deterministic function of the instance. *)
  Array.of_list
    (List.stable_sort
       (fun a b -> compare_task tasks.(a) tasks.(b))
       (Array.to_list (Array.init (Array.length tasks) Fun.id)))

let relabelled tasks = Array.mapi (fun p (t : Task.t) -> Task.make ~id:p ~release:t.release ~deadline:t.deadline ~proc_times:t.proc_times) tasks

let canonicalize (shop : Recurrence_shop.t) =
  let perm = sort_positions shop.tasks in
  let tasks = relabelled (Array.map (fun orig -> shop.Recurrence_shop.tasks.(orig)) perm) in
  let canonical_shop = Recurrence_shop.make ~visit:shop.visit tasks in
  let lines = Array.map Instance_io.task_line tasks in
  { shop = canonical_shop; perm; key = digest_lines shop.visit lines; lines }

let key shop = (canonicalize shop).key

(* Stable merge of the committed canonical order with the stably sorted
   fresh tasks — ties take the committed side — equals the stable sort
   of committed-then-fresh, i.e. exactly what [canonicalize] would
   compute on the merged candidate.  Committed lines are reused verbatim;
   only the fresh tasks are rendered. *)
let merge ~(base : canonical) (fresh : Task.t array) =
  let n = Array.length base.perm and k = Array.length fresh in
  let fperm = sort_positions fresh in
  let total = n + k in
  let perm = Array.make total 0 in
  let lines = Array.make total "" in
  let pick = Array.make total true (* true = committed side *) in
  let i = ref 0 and j = ref 0 in
  for p = 0 to total - 1 do
    let take_base =
      if !i >= n then false
      else if !j >= k then true
      else compare_task base.shop.Recurrence_shop.tasks.(!i) fresh.(fperm.(!j)) <= 0
    in
    pick.(p) <- take_base;
    if take_base then begin
      perm.(p) <- base.perm.(!i);
      lines.(p) <- base.lines.(!i);
      incr i
    end
    else begin
      perm.(p) <- n + fperm.(!j);
      lines.(p) <- Instance_io.task_line fresh.(fperm.(!j));
      incr j
    end
  done;
  let i = ref 0 and j = ref 0 in
  let tasks =
    Array.init total (fun p ->
        let t =
          if pick.(p) then begin
            let t = base.shop.Recurrence_shop.tasks.(!i) in
            incr i;
            t
          end
          else begin
            let t = fresh.(fperm.(!j)) in
            incr j;
            t
          end
        in
        Task.make ~id:p ~release:t.Task.release ~deadline:t.deadline ~proc_times:t.proc_times)
  in
  let visit = base.shop.Recurrence_shop.visit in
  {
    shop = Recurrence_shop.make ~visit tasks;
    perm;
    key = digest_lines visit lines;
    lines;
  }

(* {2 Structural pre-key}

   Canonicalization's cost is dominated by rendering the task lines and
   digesting them.  The keyer memoizes finished canonicals under a cheap
   structural fingerprint; a repeat (byte-identical or any permutation)
   is recognised by sorting alone and reuses the stored key and lines
   without touching [Printf] or [Digest].  The fingerprint is only an
   index — every memo hit is verified task-by-task with exact rational
   comparison before reuse, so hash collisions cost time, never
   correctness. *)
module Keyer = struct
  type nonrec t = {
    memo : (int, canonical list ref) Hashtbl.t;
    mutable reused : int;
    mutable rendered : int;
  }

  let create () = { memo = Hashtbl.create 256; reused = 0; rendered = 0 }

  let fingerprint (visit : Visit.t) (tasks : Task.t array) =
    (* Order-dependent over the canonical (sorted) order is fine: the
       lookup happens after sorting. *)
    Array.fold_left
      (fun acc (t : Task.t) ->
        (acc * 31)
        lxor Hashtbl.hash (t.Task.release, t.deadline, t.proc_times))
      (Hashtbl.hash visit.Visit.sequence)
      tasks
    land max_int

  let same_instance (visit : Visit.t) (sorted : Task.t array) (c : canonical) =
    Array.length sorted = Array.length c.shop.Recurrence_shop.tasks
    && c.shop.Recurrence_shop.visit.Visit.sequence = visit.Visit.sequence
    &&
    let rec go p =
      p >= Array.length sorted
      || (compare_task sorted.(p) c.shop.Recurrence_shop.tasks.(p) = 0 && go (p + 1))
    in
    go 0

  let canonicalize t (shop : Recurrence_shop.t) =
    let perm = sort_positions shop.Recurrence_shop.tasks in
    let sorted = Array.map (fun orig -> shop.Recurrence_shop.tasks.(orig)) perm in
    let visit = shop.Recurrence_shop.visit in
    let fp = fingerprint visit sorted in
    (* Bound the memo so a never-repeating stream cannot grow it without
       limit; resetting only costs future re-renders. *)
    if Hashtbl.length t.memo > 65536 then Hashtbl.reset t.memo;
    let bucket =
      match Hashtbl.find_opt t.memo fp with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.add t.memo fp b;
          b
    in
    match List.find_opt (same_instance visit sorted) !bucket with
    | Some c ->
        t.reused <- t.reused + 1;
        Obs.incr "serve.keyer.reuse";
        { c with perm }
    | None ->
        t.rendered <- t.rendered + 1;
        Obs.incr "serve.keyer.render";
        let tasks = relabelled sorted in
        let canonical_shop = Recurrence_shop.make ~visit tasks in
        let lines = Array.map Instance_io.task_line tasks in
        let c = { shop = canonical_shop; perm; key = digest_lines visit lines; lines } in
        bucket := c :: !bucket;
        c

  type stats = { reused : int; rendered : int }

  let stats (t : t) = { reused = t.reused; rendered = t.rendered }
end

let restore_starts { perm; _ } (starts : Rat.t array array) =
  let out = Array.make (Array.length starts) [||] in
  Array.iteri (fun p orig -> out.(orig) <- starts.(p)) perm;
  out

(* Doubly-linked intrusive LRU list: [head] is most recent, [tail] the
   eviction candidate. *)
type 'a node = {
  nkey : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: capacity must be >= 0";
  {
    cap = capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      t.hits <- t.hits + 1;
      Obs.incr "serve.cache.hit";
      unlink t node;
      push_front t node;
      Some node.value
  | None ->
      t.misses <- t.misses + 1;
      Obs.incr "serve.cache.miss";
      None

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.nkey;
      t.evictions <- t.evictions + 1;
      Obs.incr "serve.cache.eviction"

let add t key value =
  if t.cap > 0 then
    match Hashtbl.find_opt t.table key with
    | Some node ->
        node.value <- value;
        unlink t node;
        push_front t node
    | None ->
        if Hashtbl.length t.table >= t.cap then evict_lru t;
        let node = { nkey = key; value; prev = None; next = None } in
        Hashtbl.replace t.table key node;
        push_front t node

type stats = { hits : int; misses : int; evictions : int; size : int }

let stats (t : 'a t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; size = length t }

let hit_rate (t : 'a t) =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total
