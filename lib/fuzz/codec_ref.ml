module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
module Infeasibility = E2e_core.Infeasibility
module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher

(* ------------------------------------------------------------------ *)
(* Numbers                                                            *)

let is_digit c = c >= '0' && c <= '9'

(* The literal grammar checked by character class up front — [-]D,
   [-]D/D, [-][D].D — so the [int_of_string]-based conversion below
   never sees OCaml's own literal syntax ([0x10], [1_000], [+5]). *)
let well_formed s =
  let n = String.length s in
  let all_digits a b = a < b && String.for_all is_digit (String.sub s a (b - a)) in
  let a = if n > 0 && s.[0] = '-' then 1 else 0 in
  match (String.index_opt s '/', String.index_opt s '.') with
  | None, None -> all_digits a n
  | Some i, None -> all_digits a i && all_digits (i + 1) n
  | None, Some i -> (i = a || all_digits a i) && all_digits (i + 1) n
  | Some _, Some _ -> false

let of_decimal_string s =
  let s = String.trim s in
  let fail () = invalid_arg (Printf.sprintf "Rat.of_decimal_string: %S" s) in
  if not (well_formed s) then fail ();
  let int part =
    match int_of_string_opt part with Some n when n <> min_int -> n | _ -> fail ()
  in
  match String.index_opt s '/' with
  | Some i ->
      let n = int (String.sub s 0 i) and d = int (String.sub s (i + 1) (String.length s - i - 1)) in
      if d = 0 then fail () else Rat.make n d
  | None -> (
      match String.index_opt s '.' with
      | None -> Rat.of_int (int s)
      | Some i ->
          let int_part = String.sub s 0 i in
          let frac_part = String.sub s (i + 1) (String.length s - i - 1) in
          let negative = String.length int_part > 0 && int_part.[0] = '-' in
          let whole = if int_part = "" || int_part = "-" then 0 else int int_part in
          (* Trailing zeros are value-neutral; past 18 significant
             fractional digits 10^k leaves the native int range. *)
          let rec significant k =
            if k > 0 && frac_part.[k - 1] = '0' then significant (k - 1) else k
          in
          let k = significant (String.length frac_part) in
          if k > 18 then fail ();
          let frac = if k = 0 then 0 else int (String.sub frac_part 0 k) in
          let scale = int ("1" ^ String.make k '0') in
          let magnitude =
            try Rat.add (Rat.of_int (Stdlib.abs whole)) (Rat.make frac scale)
            with Rat.Overflow -> fail ()
          in
          if negative then Rat.neg magnitude else magnitude)

(* ------------------------------------------------------------------ *)
(* Task-set text format                                               *)

let strip_comment line =
  match String.index_opt line '#' with None -> line | Some i -> String.sub line 0 i

let words line =
  String.split_on_char ' ' (String.trim line)
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let visit_number w =
  let digits =
    if String.length w > 0 && w.[0] = '-' then String.sub w 1 (String.length w - 1) else w
  in
  if digits <> "" && String.for_all is_digit digits then int_of_string_opt w else None

let parse_instance text =
  let lines = String.split_on_char '\n' text in
  let visit = ref None in
  let tasks = ref [] in
  let error = ref None in
  let fail lineno msg =
    if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno msg)
  in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      match words (strip_comment line) with
      | [] -> ()
      | "visit" :: rest -> (
          if !visit <> None then fail lineno "duplicate visit directive"
          else
            match List.map visit_number rest with
            | ints when List.for_all Option.is_some ints && ints <> [] -> (
                let seq = Array.of_list (List.map Option.get ints) in
                match Visit.of_one_based seq with
                | v -> visit := Some v
                | exception Invalid_argument m -> fail lineno m)
            | _ -> fail lineno "visit expects 1-based processor numbers")
      | "task" :: rest -> (
          match rest with
          | release :: deadline :: taus when taus <> [] -> (
              try
                let release = of_decimal_string release in
                let deadline = of_decimal_string deadline in
                let proc_times = Array.of_list (List.map of_decimal_string taus) in
                tasks := (lineno, release, deadline, proc_times) :: !tasks
              with Invalid_argument m -> fail lineno m)
          | _ -> fail lineno "task expects: release deadline tau_1 ... tau_k")
      | word :: _ -> fail lineno (Printf.sprintf "unknown directive %S" word))
    lines;
  match !error with
  | Some e -> Error e
  | None -> (
      let tasks = List.rev !tasks in
      match tasks with
      | [] -> Error "no task lines"
      | (_, _, _, taus0) :: _ -> (
          let k = Array.length taus0 in
          let visit = match !visit with Some v -> v | None -> Visit.traditional k in
          if Visit.length visit <> k then
            Error
              (Printf.sprintf "visit length %d does not match %d processing times"
                 (Visit.length visit) k)
          else
            let bad = List.find_opt (fun (_, _, _, taus) -> Array.length taus <> k) tasks in
            match bad with
            | Some (lineno, _, _, _) -> Error (Printf.sprintf "line %d: wrong subtask count" lineno)
            | None -> (
                try
                  let arr =
                    Array.of_list
                      (List.mapi
                         (fun id (_, release, deadline, proc_times) ->
                           Task.make ~id ~release ~deadline ~proc_times)
                         tasks)
                  in
                  Ok (Recurrence_shop.make ~visit arr)
                with Invalid_argument m -> Error m)))

let task_line (task : Task.t) =
  let buf = Buffer.create 32 in
  Buffer.add_string buf
    (Printf.sprintf "task %s %s" (Rat.to_string task.release) (Rat.to_string task.deadline));
  Array.iter (fun tau -> Buffer.add_string buf (" " ^ Rat.to_string tau)) task.proc_times;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let instance_to_string (shop : Recurrence_shop.t) =
  let buf = Buffer.create 256 in
  if not (Visit.is_traditional shop.visit) then begin
    Buffer.add_string buf "visit";
    Array.iter
      (fun p -> Buffer.add_string buf (Printf.sprintf " %d" (p + 1)))
      shop.visit.Visit.sequence;
    Buffer.add_char buf '\n'
  end;
  Array.iter (fun task -> Buffer.add_string buf (task_line task)) shop.tasks;
  Buffer.contents buf

let to_csv (t : Schedule.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "task,stage,processor,start,finish\n";
  let shop = t.Schedule.shop in
  for i = 0 to Recurrence_shop.n_tasks shop - 1 do
    for j = 0 to Visit.length shop.Recurrence_shop.visit - 1 do
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%s,%s\n" i j
           (shop.Recurrence_shop.visit.Visit.sequence.(j) + 1)
           (Rat.to_string (Schedule.start t ~task:i ~stage:j))
           (Rat.to_string (Schedule.finish t ~task:i ~stage:j)))
    done
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)

let is_shop_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_shop s = s <> "" && String.for_all is_shop_char s
let is_space = function ' ' | '\t' | '\r' | '\n' | '\012' -> true | _ -> false

let cut_word s =
  let s = String.trim s in
  let n = String.length s in
  let rec find i = if i >= n then None else if is_space s.[i] then Some i else find (i + 1) in
  match find 0 with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.trim (String.sub s (i + 1) (n - i - 1)))

let unframe payload = String.map (function ';' -> '\n' | c -> c) payload

let parse_tasks payload =
  let text = unframe payload in
  let non_task =
    String.split_on_char '\n' text
    |> List.exists (fun line ->
           match cut_word (strip_comment line) with ("" | "task"), _ -> false | _ -> true)
  in
  if non_task then Error "add payload must contain only task directives"
  else
    match parse_instance text with
    | Error e -> Error e
    | Ok shop ->
        Ok
          (Array.to_list shop.Recurrence_shop.tasks
          |> List.map (fun (t : Task.t) -> (t.release, t.deadline, t.proc_times)))

let parse_request line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok E2e_serve.Protocol.Blank
  else
    let keyword, rest = cut_word line in
    match keyword with
    | "hello" -> Ok (E2e_serve.Protocol.Hello rest)
    | "stats" -> if rest = "" then Ok E2e_serve.Protocol.Stats else Error "stats takes no arguments"
    | "metrics" ->
        if rest = "" then Ok E2e_serve.Protocol.Metrics else Error "metrics takes no arguments"
    | "ping" -> if rest = "" then Ok E2e_serve.Protocol.Ping else Error "ping takes no arguments"
    | "quit" -> if rest = "" then Ok E2e_serve.Protocol.Quit else Error "quit takes no arguments"
    | "query" | "drop" ->
        let shop, extra = cut_word rest in
        if not (valid_shop shop) then
          Error (Printf.sprintf "%s expects a shop name ([A-Za-z0-9_.-]+)" keyword)
        else if extra <> "" then Error (Printf.sprintf "%s takes one argument" keyword)
        else if keyword = "query" then Ok (E2e_serve.Protocol.Request (Admission.Query { shop }))
        else Ok (E2e_serve.Protocol.Request (Admission.Drop { shop }))
    | "submit" -> (
        let shop, payload = cut_word rest in
        if not (valid_shop shop) then Error "submit expects: submit <shop> <instance>"
        else
          match parse_instance (unframe payload) with
          | Ok instance -> Ok (E2e_serve.Protocol.Request (Admission.Submit { shop; instance }))
          | Error e -> Error e)
    | "add" -> (
        let shop, payload = cut_word rest in
        if not (valid_shop shop) then Error "add expects: add <shop> <tasks>"
        else
          match parse_tasks payload with
          | Ok tasks -> Ok (E2e_serve.Protocol.Request (Admission.Add { shop; tasks }))
          | Error e -> Error e)
    | "" -> Ok E2e_serve.Protocol.Blank
    | other -> Error (Printf.sprintf "unknown request %S" other)

let frame text =
  String.trim text |> String.split_on_char '\n' |> List.map String.trim |> String.concat " ; "

let render_request = function
  | Admission.Submit { shop; instance } ->
      Printf.sprintf "submit %s %s" shop (frame (instance_to_string instance))
  | Admission.Add { shop; tasks } ->
      let task_line (release, deadline, proc_times) =
        Printf.sprintf "task %s %s %s" (Rat.to_string release) (Rat.to_string deadline)
          (String.concat " " (Array.to_list (Array.map Rat.to_string proc_times)))
      in
      Printf.sprintf "add %s %s" shop (String.concat " ; " (List.map task_line tasks))
  | Admission.Query { shop } -> "query " ^ shop
  | Admission.Drop { shop } -> "drop " ^ shop

(* ------------------------------------------------------------------ *)
(* Replies                                                            *)

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let pp_certificate ppf = function
  | None -> Format.pp_print_string ppf "none"
  | Some (Infeasibility.Negative_slack { task }) ->
      Format.fprintf ppf "negative-slack(task=T%d)" task
  | Some (Infeasibility.Overloaded_window { processor; window_start; window_end; demand }) ->
      Format.fprintf ppf "overloaded-window(proc=P%d,window=[%s,%s],demand=%s)" (processor + 1)
        (Rat.to_string window_start) (Rat.to_string window_end) (Rat.to_string demand)

let pp_reply ppf = function
  | Admission.Decided { shop; n_tasks; decision = Admission.Admitted { schedule; algo } } ->
      Format.fprintf ppf "admitted shop=%s tasks=%d algo=%s makespan=%s" shop n_tasks algo
        (Rat.to_string (Schedule.makespan schedule))
  | Admission.Decided { shop; n_tasks; decision = Admission.Rejected { certificate } } ->
      Format.fprintf ppf "rejected shop=%s tasks=%d certificate=%a" shop n_tasks pp_certificate
        certificate
  | Admission.Decided { shop; n_tasks; decision = Admission.Undecided { reason } } ->
      Format.fprintf ppf "undecided shop=%s tasks=%d reason=%s" shop n_tasks reason
  | Admission.Queried { shop; n_tasks = Some n } ->
      Format.fprintf ppf "info shop=%s tasks=%d" shop n
  | Admission.Queried { shop; n_tasks = None } -> Format.fprintf ppf "info shop=%s unknown" shop
  | Admission.Dropped { shop; existed } ->
      Format.fprintf ppf "dropped shop=%s existed=%b" shop existed
  | Admission.Request_error { shop; message }
  | Admission.Decided { shop; decision = Admission.Failed { message }; _ } ->
      Format.fprintf ppf "error shop=%s %s" shop (one_line message)

let pp_outcome ppf = function
  | Batcher.Reply r -> pp_reply ppf r
  | Batcher.Overloaded -> Format.pp_print_string ppf "overloaded"

let render_schedule schedule =
  let csv = to_csv schedule in
  let csv =
    if String.length csv > 0 && csv.[String.length csv - 1] = '\n' then
      String.sub csv 0 (String.length csv - 1)
    else csv
  in
  String.map (function '\n' -> ';' | c -> c) csv

let render_reply ?(schedules = true) outcome =
  let base = Format.asprintf "%a" pp_outcome outcome in
  match outcome with
  | Batcher.Reply (Admission.Decided { decision = Admission.Admitted { schedule; _ }; _ })
    when schedules ->
      base ^ " schedule=" ^ render_schedule schedule
  | _ -> base

let render_hello ~requested =
  let version = E2e_serve.Protocol.version in
  if requested = version then "ok " ^ version
  else Printf.sprintf "error unsupported version %S (this server speaks %s)" requested version
