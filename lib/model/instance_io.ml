module Rat = E2e_rat.Rat

(* The parser walks the text once by offsets: directives end at a
   newline (or, in framed text, also at [;]), [#] comments out the rest
   of a directive, each directive is trimmed at both ends, and words are
   separated by runs of spaces and tabs.  Only the words that end up in
   the result (numbers, via {!Rat.of_decimal_sub}) or in an error text
   are ever copied. *)

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
let is_sep c = c = ' ' || c = '\t'
let quote s = "\"" ^ String.escaped s ^ "\""

exception Parse_error of int * string

let fail lineno msg = raise (Parse_error (lineno, msg))

let rec skip_sep s i stop =
  if i < stop && is_sep (String.unsafe_get s i) then skip_sep s (i + 1) stop else i

let rec word_end s i stop =
  if i < stop && not (is_sep (String.unsafe_get s i)) then word_end s (i + 1) stop else i

let rec count_words s n i stop =
  if i >= stop then n else count_words s (n + 1) (skip_sep s (word_end s i stop) stop) stop

let rec same_chars s i lit k =
  k = String.length lit
  || (String.unsafe_get s (i + k) = String.unsafe_get lit k && same_chars s i lit (k + 1))

let is_word s i e lit = e - i = String.length lit && same_chars s i lit 0

(* The digits of [s] in [k, e) as a non-negative int; [-1] on a
   non-digit or overflow. *)
let rec visit_digits s acc k e =
  if k = e then acc
  else
    match String.unsafe_get s k with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if acc > (max_int - d) / 10 then -1 else visit_digits s ((acc * 10) + d) (k + 1) e
    | _ -> -1

(* A visit processor number: [-]digits, nothing else. *)
let visit_number lineno s i e =
  let negative = i < e && String.unsafe_get s i = '-' in
  let a = if negative then i + 1 else i in
  let n = if a = e then -1 else visit_digits s 0 a e in
  if n < 0 then fail lineno "visit expects 1-based processor numbers";
  if negative then -n else n

let number lineno s a b = try Rat.of_decimal_sub s a b with Invalid_argument m -> fail lineno m

type acc = {
  mutable visit : Visit.t option;
  mutable tasks : (int * Rat.t * Rat.t * Rat.t array) list;  (* most recent first *)
}

(* One directive: [s] in [i, stop), already comment-stripped and
   trimmed, non-empty. *)
let directive acc lineno s i stop =
  let e = word_end s i stop in
  let rest = skip_sep s e stop in
  if is_word s i e "task" then begin
    let n = count_words s 0 rest stop in
    if n < 3 then fail lineno "task expects: release deadline tau_1 ... tau_k";
    let b = word_end s rest stop in
    let release = number lineno s rest b in
    let a = skip_sep s b stop in
    let b = word_end s a stop in
    let deadline = number lineno s a b in
    let proc_times = Array.make (n - 2) Rat.zero in
    let a = ref (skip_sep s b stop) in
    for k = 0 to n - 3 do
      let b = word_end s !a stop in
      proc_times.(k) <- number lineno s !a b;
      a := skip_sep s b stop
    done;
    acc.tasks <- (lineno, release, deadline, proc_times) :: acc.tasks
  end
  else if is_word s i e "visit" then begin
    if acc.visit <> None then fail lineno "duplicate visit directive";
    let n = count_words s 0 rest stop in
    if n = 0 then fail lineno "visit expects 1-based processor numbers";
    let seq = Array.make n 0 in
    let a = ref rest in
    for k = 0 to n - 1 do
      let b = word_end s !a stop in
      seq.(k) <- visit_number lineno s !a b;
      a := skip_sep s b stop
    done;
    (* n stages cannot cover a processor above n, and Visit.make would
       allocate one slot per processor up to it before saying so: answer
       with its text first. *)
    if Array.exists (fun p -> p > n) seq then
      fail lineno
        (if Array.exists (fun p -> p < 1) seq then "Visit.make: negative processor"
         else "Visit.make: processor numbering has gaps");
    match Visit.of_one_based seq with
    | v -> acc.visit <- Some v
    | exception Invalid_argument m -> fail lineno m
  end
  else fail lineno ("unknown directive " ^ quote (String.sub s i (e - i)))

let assemble acc =
  match List.rev acc.tasks with
  | [] -> Error "no task lines"
  | (_, _, _, taus0) :: _ as tasks -> (
      let k = Array.length taus0 in
      let visit = match acc.visit with Some v -> v | None -> Visit.traditional k in
      if Visit.length visit <> k then
        Error
          ("visit length " ^ string_of_int (Visit.length visit) ^ " does not match "
         ^ string_of_int k ^ " processing times")
      else
        match List.find_opt (fun (_, _, _, taus) -> Array.length taus <> k) tasks with
        | Some (lineno, _, _, _) -> Error ("line " ^ string_of_int lineno ^ ": wrong subtask count")
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
            with Invalid_argument m -> Error m))

(* End of the directive starting at [i]: the next newline, or [;] in
   framed text. *)
let rec directive_end ~framed s i stop =
  if i >= stop then stop
  else
    match String.unsafe_get s i with
    | '\n' -> i
    | ';' when framed -> i
    | _ -> directive_end ~framed s (i + 1) stop

let rec comment_start s i stop =
  if i >= stop || String.unsafe_get s i = '#' then i else comment_start s (i + 1) stop

let rec skip_blank s i stop =
  if i < stop && is_blank (String.unsafe_get s i) then skip_blank s (i + 1) stop else i

let rec trim_blank s start stop =
  if stop > start && is_blank (String.unsafe_get s (stop - 1)) then trim_blank s start (stop - 1)
  else stop

let rec directives ~framed acc s lineno i stop =
  if i <= stop then begin
    let j = directive_end ~framed s i stop in
    let c = comment_start s i j in
    let a = skip_blank s i c in
    let b = trim_blank s a c in
    if a < b then directive acc lineno s a b;
    directives ~framed acc s (lineno + 1) (j + 1) stop
  end

let parse_span ~framed s pos stop =
  let acc = { visit = None; tasks = [] } in
  match directives ~framed acc s 1 pos stop with
  | () -> assemble acc
  | exception Parse_error (lineno, msg) -> Error ("line " ^ string_of_int lineno ^ ": " ^ msg)

let parse text = parse_span ~framed:false text 0 (String.length text)
let parse_framed s pos stop = parse_span ~framed:true s pos stop

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error m -> Error m

let add_task buf release deadline proc_times =
  Buffer.add_string buf "task ";
  Rat.add_to_buffer buf release;
  Buffer.add_char buf ' ';
  Rat.add_to_buffer buf deadline;
  Array.iter
    (fun tau ->
      Buffer.add_char buf ' ';
      Rat.add_to_buffer buf tau)
    proc_times

let task_line (task : Task.t) =
  let buf = Buffer.create 32 in
  add_task buf task.release task.deadline task.proc_times;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let add_directives ~sep buf (shop : Recurrence_shop.t) =
  let first = ref true in
  let next () = if !first then first := false else Buffer.add_string buf sep in
  if not (Visit.is_traditional shop.visit) then begin
    next ();
    Buffer.add_string buf "visit";
    Array.iter
      (fun p ->
        Buffer.add_char buf ' ';
        Rat.add_int_to_buffer buf (p + 1))
      shop.visit.Visit.sequence
  end;
  Array.iter
    (fun (task : Task.t) ->
      next ();
      add_task buf task.release task.deadline task.proc_times)
    shop.tasks

let to_string (shop : Recurrence_shop.t) =
  let buf = Buffer.create 256 in
  add_directives ~sep:"\n" buf shop;
  if Buffer.length buf > 0 then Buffer.add_char buf '\n';
  Buffer.contents buf
