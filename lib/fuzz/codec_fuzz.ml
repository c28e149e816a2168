module Rat = E2e_rat.Rat
module Prng = E2e_prng.Prng
module Task = E2e_model.Task
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Instance_io = E2e_model.Instance_io
module Schedule = E2e_schedule.Schedule
module Infeasibility = E2e_core.Infeasibility
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Protocol = E2e_serve.Protocol

type finding = { trial : int; check : string; input : string; codec : string; reference : string }
type report = { seed : int; trials : int; agreed : int; findings : finding list }

let code = 7

(* ------------------------------------------------------------------ *)
(* Numbers: magnitudes that walk the digit writer's edges.            *)

let pick g l = List.nth l (Prng.int g (List.length l))
let pow10 k = int_of_string ("1" ^ String.make k '0')

let magnitude g =
  match Prng.int g 6 with
  | 0 -> Prng.int g 10
  | 1 -> Prng.int g 100_000
  | 2 ->
      (* 9 / 10 digit (and every other) power-of-ten boundary. *)
      let p = pow10 (1 + Prng.int g 18) in
      pick g [ p - 1; p; p + 1 ]
  | 3 -> Int64.to_int (Int64.shift_right_logical (Prng.bits64 g) 3) (* up to 2^61 *)
  | 4 -> pick g [ max_int; max_int - 1; 1 lsl 61; 0 ]
  | _ -> Prng.int g 1000

let signed g m = if Prng.bool g then -m else m

let denominator g =
  match Prng.int g 5 with
  | 0 -> 1
  | 1 -> 2 + Prng.int g 9
  | 2 -> 1 + Prng.int g 1000
  | 3 -> max 1 (magnitude g)
  | _ -> pick g [ 3; 7; 1000; max_int ]

(* Any representable rational, for fields that are rendered but never
   computed with (certificate windows and demands). *)
let any_rat g = Rat.make (signed g (magnitude g)) (denominator g)

(* Small positive rationals, for processing times and windows that the
   renderer adds together. *)
let small_rat g = Rat.make (1 + Prng.int g 50) (pick g [ 1; 1; 2; 3; 4; 10; 100 ])

(* Values the renderer computes with (starts, makespans) stay on one
   denominator per schedule so exact sums and comparisons never
   overflow, while the numerators still reach +-2^61. *)
let start_rat g ~den ~huge =
  let num =
    if huge then signed g (magnitude g land ((1 lsl 61) - 1)) else signed g (Prng.int g 10_000)
  in
  Rat.make num den

let small_den g = (denominator g land 1023) + 1

(* ------------------------------------------------------------------ *)
(* Instances and outcomes                                             *)

let gen_visit g =
  let m = 1 + Prng.int g 3 in
  if Prng.int g 4 = 0 && m >= 2 then
    (* One loop: processor 2 is revisited. *)
    Visit.of_one_based (Array.init (m + 1) (fun j -> if j = m then 2 else j + 1))
  else Visit.traditional m

(* Huge shops keep integral values (numerators near 2^60) so deadlines
   can still be computed exactly; the others use small fractions. *)
let gen_shop g ~huge =
  let visit = gen_visit g in
  let k = Visit.length visit in
  let tasks =
    Array.init (Prng.int g 5) (fun id ->
        let proc_times =
          Array.init k (fun _ -> if huge then Rat.of_int (1 + Prng.int g 9) else small_rat g)
        in
        let release =
          if huge then Rat.of_int (signed g (magnitude g land ((1 lsl 60) - 1)))
          else start_rat g ~den:(small_den g) ~huge:false
        in
        let window = Rat.mul_int (Rat.sum_array proc_times) (1 + Prng.int g 3) in
        Task.make ~id ~release ~deadline:(Rat.add release window) ~proc_times)
  in
  Recurrence_shop.make ~visit tasks

let gen_shop_name g =
  let alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-" in
  String.init (1 + Prng.int g 8) (fun _ -> alphabet.[Prng.int g (String.length alphabet)])

let gen_text g ~newlines =
  let alphabet = "abcdefghij XYZ0123456789=:;,.-_/\"'()[]#\\\t" in
  String.init (Prng.int g 24) (fun _ ->
      if newlines && Prng.int g 6 = 0 then pick g [ '\n'; '\r' ]
      else alphabet.[Prng.int g (String.length alphabet)])

let gen_schedule g =
  let huge = Prng.int g 3 = 0 in
  let shop = gen_shop g ~huge in
  let den = if huge then 1 else small_den g in
  let k = Visit.length shop.Recurrence_shop.visit in
  Schedule.make shop
    (Array.init (Recurrence_shop.n_tasks shop) (fun _ ->
         Array.init k (fun _ -> start_rat g ~den ~huge)))

let gen_int g = signed g (magnitude g)

let gen_certificate g =
  match Prng.int g 3 with
  | 0 -> None
  | 1 ->
      let task = if Prng.bool g then Prng.int g 50 else gen_int g in
      Some (Infeasibility.Negative_slack { task })
  | _ ->
      let processor =
        if Prng.int g 5 = 0 then pick g [ max_int; -1; min_int + 1 ] else Prng.int g 8
      in
      Some
        (Infeasibility.Overloaded_window
           { processor; window_start = any_rat g; window_end = any_rat g; demand = any_rat g })

let algos = [ "eedf"; "algo_a"; "algo_h"; "algo_r"; "portfolio"; "greedy_edf"; "solver" ]
let reasons = [ "heuristic-failed"; "budget-exhausted"; "verify-failed" ]

let gen_outcome g =
  let shop = gen_shop_name g in
  let n_tasks = if Prng.int g 4 = 0 then gen_int g else Prng.int g 300 in
  let decided decision = Batcher.Reply (Admission.Decided { shop; n_tasks; decision }) in
  match Prng.int g 10 with
  | 0 | 1 | 2 -> decided (Admission.Admitted { schedule = gen_schedule g; algo = pick g algos })
  | 3 | 4 | 5 -> decided (Admission.Rejected { certificate = gen_certificate g })
  | 6 ->
      let reason = if Prng.bool g then pick g reasons else gen_text g ~newlines:false in
      decided (Admission.Undecided { reason })
  | 7 ->
      let n_tasks = if Prng.bool g then Some n_tasks else None in
      Batcher.Reply (Admission.Queried { shop; n_tasks })
  | 8 ->
      if Prng.int g 4 = 0 then Batcher.Overloaded
      else Batcher.Reply (Admission.Dropped { shop; existed = Prng.bool g })
  | _ ->
      let shop = if Prng.bool g then "-" else shop in
      let message = gen_text g ~newlines:true in
      if Prng.int g 4 = 0 then decided (Admission.Failed { message })
      else Batcher.Reply (Admission.Request_error { shop; message })

let gen_request g =
  let shop = gen_shop_name g and huge = Prng.int g 3 = 0 in
  match Prng.int g 5 with
  | 0 | 1 -> Admission.Submit { shop; instance = gen_shop g ~huge }
  | 2 ->
      let task (t : Task.t) = (t.release, t.deadline, t.proc_times) in
      Admission.Add
        { shop; tasks = Array.to_list (Array.map task (gen_shop g ~huge).Recurrence_shop.tasks) }
  | 3 -> Admission.Query { shop }
  | _ -> Admission.Drop { shop }

(* ------------------------------------------------------------------ *)
(* Request lines: rendered requests, hand-written edge shapes, and
   byte mutations of both.                                           *)

let templates =
  [|
    "hello e2e-serve/1"; "hello  e2e-serve/2 "; "stats"; "stats now"; "metrics"; "ping"; "quit";
    "quit\t"; "# comment"; "   "; ""; " ; "; "query\ts1"; "drop\t s1"; "query s1 x";
    "query bad!name"; "submit"; "submit s1"; "add s1";
    "submit s1 task 0 10 1 1 ;; task 0 12 1 1 ; # note";
    "submit\ts2\ttask\t0\t9  1 1 ;  ; task 1 9 1 1 # trailing";
    "submit s3 visit 1 2 1 ; task 0 3 2 1 1 ; task 0 4 1 2 1";
    "submit s4 task 1/2 21/2 3/4 1.25 ; task .5 14 0.25 7/3 ; task -.5 9 0.50 1";
    "submit s5 task 0x0 0x10 1_0 0b1";
    "submit s6 task 0 10 1.0x1 1.+5";
    "submit s7 task +0 10 1/-2 -0/7";
    "submit s8 task 0 99999999999999999999 1";
    "submit s9 task 0 4611686018427387903 1 ; task 0 -4611686018427387904 1";
    "submit s18 task 4611686018427387903/2 4611686018427387902/3 1";
    "submit s10 task 0 1.0000000000000000000000001 1 ; task 0 0.50000000000000000000 1";
    "submit s11 task 0 10\r 1 1";
    "submit s12 task\r0 10 1 1";
    "submit s13 visit 0x1 2 ; task 0 10 1 1";
    "submit s14 visit ; task 0 10 1";
    "submit s15 visit 1 2 ; visit 1 2 ; task 0 10 1 1";
    "submit s16 task 0 10 1 ; bogus 1";
    "submit s17 task 0 10 ; task 0 10 1";
    "add s1 visit 1 2 ; task 0 9 1 1";
    "add s1 task 0 9 1 1 ; # only ; ;";
    "add s1 task\r0 9 1 1";
    "add s1 # task 0 9 1 1";
    "add s1 task#x 0 9 1";
    "add s1 tas#k 0 9 1";
    "frobnicate x";
  |]

let mutation_bytes = " \t\r\n\012;#-./0123456789x_+boeu"

let mutate g line =
  let b = Buffer.create (String.length line + 8) in
  Buffer.add_string b line;
  for _ = 0 to Prng.int g 4 do
    let s = Buffer.contents b in
    let n = String.length s in
    let byte () =
      if Prng.int g 8 = 0 then Char.chr (Prng.int g 256)
      else mutation_bytes.[Prng.int g (String.length mutation_bytes)]
    in
    Buffer.clear b;
    let at = if n = 0 then 0 else Prng.int g (n + 1) in
    match Prng.int g 4 with
    | 0 when at < n ->
        (* replace *)
        Buffer.add_string b (String.sub s 0 at);
        Buffer.add_char b (byte ());
        Buffer.add_string b (String.sub s (at + 1) (n - at - 1))
    | 1 when at < n ->
        (* delete a short run *)
        let len = min (n - at) (1 + Prng.int g 3) in
        Buffer.add_string b (String.sub s 0 at);
        Buffer.add_string b (String.sub s (at + len) (n - at - len))
    | 2 when at < n ->
        (* duplicate a short run *)
        let len = min (n - at) (1 + Prng.int g 6) in
        Buffer.add_string b (String.sub s 0 (at + len));
        Buffer.add_string b (String.sub s at (n - at))
    | _ ->
        (* insert *)
        Buffer.add_string b (String.sub s 0 at);
        Buffer.add_char b (byte ());
        Buffer.add_string b (String.sub s at (n - at))
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Differential checks                                                *)

(* Results and exceptions both compare: a codec that raises where the
   reference answers (or vice versa) is a disagreement. *)
let guard f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let show_result show = function
  | Ok (Ok v) -> "Ok " ^ show v
  | Ok (Error m) -> "Error " ^ String.escaped m
  | Error exn -> "raised " ^ exn

let show_item = function
  | Protocol.Request r -> Codec_ref.render_request r
  | Protocol.Hello v -> "hello " ^ String.escaped v
  | Protocol.Stats -> "stats"
  | Protocol.Metrics -> "metrics"
  | Protocol.Ping -> "ping"
  | Protocol.Quit -> "quit"
  | Protocol.Blank -> "blank"

exception Mismatch of string * string * string * string

let same_string check input codec reference =
  let c = guard codec and r = guard reference in
  if c <> r then
    let show = function Ok s -> String.escaped s | Error e -> "raised " ^ e in
    raise (Mismatch (check, input, show c, show r))

let same_parse input =
  let c = guard (fun () -> Protocol.parse_request input)
  and r = guard (fun () -> Codec_ref.parse_request input) in
  if c <> r then
    raise (Mismatch ("parse_request", input, show_result show_item c, show_result show_item r))

let check_outcome o =
  let input = Codec_ref.render_reply ~schedules:false o in
  List.iter
    (fun schedules ->
      same_string
        (if schedules then "render_reply" else "render_reply ~schedules:false")
        input
        (fun () -> Protocol.render_reply ~schedules o)
        (fun () -> Codec_ref.render_reply ~schedules o))
    [ true; false ];
  match o with
  | Batcher.Reply (Admission.Decided { decision = Admission.Admitted { schedule; _ }; _ }) ->
      same_string "Schedule.to_csv" input
        (fun () -> Schedule.to_csv schedule)
        (fun () -> Codec_ref.to_csv schedule)
  | _ -> ()

let check_instance_text text =
  let c = guard (fun () -> Instance_io.parse text)
  and r = guard (fun () -> Codec_ref.parse_instance text) in
  if c <> r then
    let show = show_result (fun s -> String.escaped (Codec_ref.instance_to_string s)) in
    raise (Mismatch ("Instance_io.parse", text, show c, show r))

let check_request g r =
  let line = Codec_ref.render_request r in
  same_string "render_request" line (fun () -> Protocol.render_request r) (fun () -> line);
  (match r with
  | Admission.Submit { instance; _ } ->
      same_string "Instance_io.to_string" line
        (fun () -> Instance_io.to_string instance)
        (fun () -> Codec_ref.instance_to_string instance);
      check_instance_text (Instance_io.to_string instance)
  | _ -> ());
  same_parse line;
  for _ = 1 to 3 do
    same_parse (mutate g line)
  done

let trial g =
  check_outcome (gen_outcome g);
  check_request g (gen_request g);
  let template = templates.(Prng.int g (Array.length templates)) in
  same_parse template;
  for _ = 1 to 4 do
    same_parse (mutate g template)
  done;
  (* The file format proper: [;] is not a separator there. *)
  check_instance_text (mutate g (String.map (function ';' -> '\n' | c -> c) template));
  check_instance_text (mutate g template);
  let requested = mutate g "e2e-serve/1" in
  same_string "render_hello" requested
    (fun () -> Protocol.render_hello ~requested)
    (fun () -> Codec_ref.render_hello ~requested)

let run ~seed ~trials () =
  let agreed = ref 0 and findings = ref [] in
  for t = 0 to trials - 1 do
    match trial (Prng.of_path [| seed; code; t |]) with
    | () -> incr agreed
    | exception Mismatch (check, input, codec, reference) ->
        findings := { trial = t; check; input; codec; reference } :: !findings
  done;
  { seed; trials; agreed = !agreed; findings = List.rev !findings }

let pp_report ppf r =
  Format.fprintf ppf "codec: %d trials, %d agreed, %d disagreement(s)" r.trials r.agreed
    (List.length r.findings);
  List.iter
    (fun f ->
      Format.fprintf ppf "@.  trial %d: %s disagrees@." f.trial f.check;
      Format.fprintf ppf "    input:     %s@." (String.escaped f.input);
      Format.fprintf ppf "    codec:     %s@." f.codec;
      Format.fprintf ppf "    reference: %s" f.reference)
    r.findings
