(* The reply-correctness gate: the expected reply log of a stream,
   computed in-process by the sequential reference interpreter
   ([Admission.apply]) and rendered exactly as the server renders it.
   Reply lines are compared by MD5 digest, so the load generator never
   has to keep a (possibly megabyte-sized) reply log in memory. *)

module Rat = E2e_rat.Rat
module Schedule = E2e_schedule.Schedule
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Cache = E2e_serve.Cache
module Protocol = E2e_serve.Protocol

type t = {
  digests : Digest.t array;  (** One per request, in stream order. *)
  schedule_checks : int;  (** Admitted schedules parsed back and re-checked. *)
  schedule_failures : int;
}

let rat_of_string s =
  match String.index_opt s '/' with
  | None -> Rat.of_int (int_of_string s)
  | Some i ->
      Rat.make
        (int_of_string (String.sub s 0 i))
        (int_of_string (String.sub s (i + 1) (String.length s - i - 1)))

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1)
  in
  go 0

(* Parse the [schedule=] field of an admitted reply back into start
   times for [shop] and run the independent checker on it. *)
let check_schedule_field shop line =
  match find_sub line " schedule=" with
  | None -> false
  | Some i ->
      let csv = String.sub line (i + 10) (String.length line - i - 10) in
      let n = E2e_model.Recurrence_shop.n_tasks shop in
      let stages = Array.length shop.E2e_model.Recurrence_shop.visit.E2e_model.Visit.sequence in
      let starts = Array.make_matrix n stages Rat.zero in
      List.iteri
        (fun row r ->
          if row > 0 then
            match String.split_on_char ',' r with
            | [ task; stage; _proc; start; _finish ] ->
                starts.(int_of_string task).(int_of_string stage) <- rat_of_string start
            | _ -> failwith "bad schedule row")
        (String.split_on_char ';' csv);
      (try Schedule.check (Schedule.make shop starts) = Ok ()
       with Failure _ | Invalid_argument _ -> false)

(* [check_schedules]: parse every admitted reply's schedule back and
   check it against the shop it commits (the grow workload, whose
   schedules are the large ones). *)
let compute ?(check_schedules = false) reqs =
  let cache = Cache.create ~capacity:Batcher.default_config.cache_capacity in
  let keyer = Cache.Keyer.create () in
  let engine = ref Admission.empty in
  let checks = ref 0 and failures = ref 0 in
  let digests =
    Array.map
      (fun req ->
        let e, reply = Admission.apply ~cache ~keyer !engine req in
        engine := e;
        let line = Protocol.render_reply (Batcher.Reply reply) in
        (match reply with
        | Admission.Decided { decision = Admission.Admitted _; shop; _ } when check_schedules -> (
            incr checks;
            match Admission.find e shop with
            | Some committed when check_schedule_field committed line -> ()
            | _ -> incr failures)
        | _ -> ());
        Digest.string line)
      reqs
  in
  { digests; schedule_checks = !checks; schedule_failures = !failures }
