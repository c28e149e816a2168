module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Recurrence_shop = E2e_model.Recurrence_shop
module Instance_io = E2e_model.Instance_io
module Schedule = E2e_schedule.Schedule
module Visit = E2e_model.Visit
module Infeasibility = E2e_core.Infeasibility

let version = "e2e-serve/1"
let greeting = version ^ " ready"

type item =
  | Hello of string
  | Request of Admission.request
  | Stats
  | Metrics
  | Ping
  | Quit
  | Blank

let is_shop_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Scanning: one pass over the request line by offsets.  Only the words
   that end up in the parsed value (shop names, numbers) or in an error
   text are copied. *)

let is_space = function ' ' | '\t' | '\r' | '\n' | '\012' -> true | _ -> false

let rec skip_space s i stop =
  if i < stop && is_space (String.unsafe_get s i) then skip_space s (i + 1) stop else i

let rec word_end s i stop =
  if i < stop && not (is_space (String.unsafe_get s i)) then word_end s (i + 1) stop else i

let rec trim_end s start stop =
  if stop > start && is_space (String.unsafe_get s (stop - 1)) then trim_end s start (stop - 1)
  else stop

let rec same_chars s i lit k =
  k = String.length lit
  || (String.unsafe_get s (i + k) = String.unsafe_get lit k && same_chars s i lit (k + 1))

let is_word s i e lit = e - i = String.length lit && same_chars s i lit 0

let rec shop_span s i e = i = e || (is_shop_char (String.unsafe_get s i) && shop_span s (i + 1) e)

let quote s = "\"" ^ String.escaped s ^ "\""

(* First whitespace-delimited word and the (trimmed) remainder.  Any
   whitespace separates — a tab-separated [query<TAB>shop] must parse
   the same as the space-separated form, not as an unknown keyword. *)
let cut_word s =
  let stop = trim_end s 0 (String.length s) in
  let i = skip_space s 0 stop in
  let e = word_end s i stop in
  let r = skip_space s e stop in
  (String.sub s i (e - i), String.sub s r (stop - r))

(* An [add] payload extends a committed shop, so directives that
   (re)define shop structure — [visit], or anything else Instance_io
   might grow — must be refused, not forwarded: a whitelist, not a
   blacklist.  Comments and blank directives pass through (Instance_io
   skips them); every other directive must lead with the [task] word,
   where a word ends at any whitespace or at the [#] of a comment. *)
let rec lead_space s k stop =
  if k < stop && (match String.unsafe_get s k with ' ' | '\t' | '\r' | '\012' -> true | _ -> false)
  then lead_space s (k + 1) stop
  else k

let rec first_word_end s k stop =
  if k < stop && match String.unsafe_get s k with '#' | ';' -> false | c -> not (is_space c)
  then first_word_end s (k + 1) stop
  else k

let rec only_task_directives s i stop =
  let a = lead_space s i stop in
  let b = first_word_end s a stop in
  (a = b || is_word s a b "task") && next_directive s b stop

and next_directive s k stop =
  k >= stop
  ||
  match String.unsafe_get s k with
  | ';' | '\n' -> only_task_directives s (k + 1) stop
  | _ -> next_directive s (k + 1) stop

let parse_tasks s pos stop =
  if not (only_task_directives s pos stop) then
    Error "add payload must contain only task directives"
  else
    Instance_io.parse_framed s pos stop
    |> Result.map (fun (shop : Recurrence_shop.t) ->
           Array.to_list shop.tasks
           |> List.map (fun (t : Task.t) -> (t.release, t.deadline, t.proc_times)))

(* The payload of submit/add is the Instance_io text format with ';'
   standing for newline, so multi-directive instances fit one framed
   line. *)
let parse_request line =
  let stop = trim_end line 0 (String.length line) in
  let i = skip_space line 0 stop in
  if i = stop || String.unsafe_get line i = '#' then Ok Blank
  else
    let e = word_end line i stop in
    let rest = skip_space line e stop in
    (* The shop word of submit/add/query/drop, and where what follows
       it starts. *)
    let se = word_end line rest stop in
    let after = skip_space line se stop in
    let shop_ok = se > rest && shop_span line rest se in
    if is_word line i e "submit" then
      if not shop_ok then Error "submit expects: submit <shop> <instance>"
      else
        Instance_io.parse_framed line after stop
        |> Result.map (fun instance ->
               Request (Admission.Submit { shop = String.sub line rest (se - rest); instance }))
    else if is_word line i e "add" then
      if not shop_ok then Error "add expects: add <shop> <tasks>"
      else
        parse_tasks line after stop
        |> Result.map (fun tasks ->
               Request (Admission.Add { shop = String.sub line rest (se - rest); tasks }))
    else if is_word line i e "query" || is_word line i e "drop" then
      let keyword = String.sub line i (e - i) in
      if not shop_ok then Error (keyword ^ " expects a shop name ([A-Za-z0-9_.-]+)")
      else if after < stop then Error (keyword ^ " takes one argument")
      else
        let shop = String.sub line rest (se - rest) in
        if keyword = "query" then Ok (Request (Admission.Query { shop }))
        else Ok (Request (Admission.Drop { shop }))
    else if is_word line i e "hello" then Ok (Hello (String.sub line rest (stop - rest)))
    else
      let control =
        if is_word line i e "stats" then Some Stats
        else if is_word line i e "metrics" then Some Metrics
        else if is_word line i e "ping" then Some Ping
        else if is_word line i e "quit" then Some Quit
        else None
      in
      match control with
      | Some item when rest = stop -> Ok item
      | Some _ -> Error (String.sub line i (e - i) ^ " takes no arguments")
      | None -> Error ("unknown request " ^ quote (String.sub line i (e - i)))

(* ------------------------------------------------------------------ *)
(* Rendering: every line is written into one buffer, numbers through
   the Rat digit writer. *)

let add_tasks buf tasks =
  List.iteri
    (fun k (release, deadline, proc_times) ->
      if k > 0 then Buffer.add_string buf " ; ";
      Instance_io.add_task buf release deadline proc_times)
    tasks

let render_request request =
  let buf = Buffer.create 256 in
  (match request with
  | Admission.Submit { shop; instance } ->
      Buffer.add_string buf "submit ";
      Buffer.add_string buf shop;
      Buffer.add_char buf ' ';
      Instance_io.add_directives ~sep:" ; " buf instance
  | Admission.Add { shop; tasks } ->
      Buffer.add_string buf "add ";
      Buffer.add_string buf shop;
      Buffer.add_char buf ' ';
      add_tasks buf tasks
  | Admission.Query { shop } ->
      Buffer.add_string buf "query ";
      Buffer.add_string buf shop
  | Admission.Drop { shop } ->
      Buffer.add_string buf "drop ";
      Buffer.add_string buf shop);
  Buffer.contents buf

let add_certificate buf = function
  | None -> Buffer.add_string buf "none"
  | Some (Infeasibility.Negative_slack { task }) ->
      Buffer.add_string buf "negative-slack(task=T";
      Rat.add_int_to_buffer buf task;
      Buffer.add_char buf ')'
  | Some (Infeasibility.Overloaded_window { processor; window_start; window_end; demand }) ->
      Buffer.add_string buf "overloaded-window(proc=P";
      Rat.add_int_to_buffer buf (processor + 1);
      Buffer.add_string buf ",window=[";
      Rat.add_to_buffer buf window_start;
      Buffer.add_char buf ',';
      Rat.add_to_buffer buf window_end;
      Buffer.add_string buf "],demand=";
      Rat.add_to_buffer buf demand;
      Buffer.add_char buf ')'

(* [verb shop=S tasks=N] — the head every shop-level reply shares. *)
let add_head buf verb shop n_tasks =
  Buffer.add_string buf verb;
  Buffer.add_string buf " shop=";
  Buffer.add_string buf shop;
  Buffer.add_string buf " tasks=";
  Rat.add_int_to_buffer buf n_tasks

(* Characters in an int's rendering, sign included (an estimate only
   for [min_int]). *)
let int_width n =
  let rec go m w = if m < 10 then w else go (m / 10) (w + 1) in
  if n < 0 then go (Stdlib.abs n) 2 else go n 1

let rat_width r =
  int_width (Rat.num r) + if Rat.den r = 1 then 0 else 1 + int_width (Rat.den r)

let add_admitted buf shop n_tasks algo makespan =
  add_head buf "admitted" shop n_tasks;
  Buffer.add_string buf " algo=";
  Buffer.add_string buf algo;
  Buffer.add_string buf " makespan=";
  Rat.add_to_buffer buf makespan

let add_error buf shop message =
  Buffer.add_string buf "error shop=";
  Buffer.add_string buf shop;
  Buffer.add_char buf ' ';
  (* One line: the message's own line breaks become spaces. *)
  String.iter
    (function '\n' | '\r' -> Buffer.add_char buf ' ' | c -> Buffer.add_char buf c)
    message

let add_reply buf = function
  | Batcher.Overloaded -> Buffer.add_string buf "overloaded"
  | Batcher.Reply (Admission.Decided { shop; n_tasks; decision }) -> (
      match decision with
      | Admission.Admitted { schedule; algo } ->
          add_admitted buf shop n_tasks algo (Schedule.makespan schedule)
      | Admission.Rejected { certificate } ->
          add_head buf "rejected" shop n_tasks;
          Buffer.add_string buf " certificate=";
          add_certificate buf certificate
      | Admission.Undecided { reason } ->
          add_head buf "undecided" shop n_tasks;
          Buffer.add_string buf " reason=";
          Buffer.add_string buf reason
      | Admission.Failed { message } -> add_error buf shop message)
  | Batcher.Reply (Admission.Queried { shop; n_tasks = Some n }) -> add_head buf "info" shop n
  | Batcher.Reply (Admission.Queried { shop; n_tasks = None }) ->
      Buffer.add_string buf "info shop=";
      Buffer.add_string buf shop;
      Buffer.add_string buf " unknown"
  | Batcher.Reply (Admission.Dropped { shop; existed }) ->
      Buffer.add_string buf "dropped shop=";
      Buffer.add_string buf shop;
      Buffer.add_string buf (if existed then " existed=true" else " existed=false")
  | Batcher.Reply (Admission.Request_error { shop; message }) -> add_error buf shop message

(* An admitted reply's buffer is sized from its row count, at two
   makespan-wide times and separators per row, so one allocation
   usually holds the whole line; everything else starts small. *)
let render_reply ?(schedules = true) outcome =
  match outcome with
  | Batcher.Reply
      (Admission.Decided { shop; n_tasks; decision = Admission.Admitted { schedule; algo } })
    when schedules ->
      let makespan = Schedule.makespan schedule in
      let shape = schedule.Schedule.shop in
      let rows = Recurrence_shop.n_tasks shape * Visit.length shape.Recurrence_shop.visit in
      let buf = Buffer.create (128 + (rows * ((2 * rat_width makespan) + 12))) in
      add_admitted buf shop n_tasks algo makespan;
      Buffer.add_string buf " schedule=";
      Schedule.add_csv ~sep:';' buf schedule;
      Buffer.contents buf
  | _ ->
      let buf = Buffer.create 96 in
      add_reply buf outcome;
      Buffer.contents buf

let pp_outcome ppf outcome = Format.pp_print_string ppf (render_reply ~schedules:false outcome)

let render_hello ~requested =
  if requested = version then "ok " ^ version
  else "error unsupported version " ^ quote requested ^ " (this server speaks " ^ version ^ ")"

(* [stats] and [metrics] sum over the stripes, so a striped server's
   figures are the per-stripe totals. *)
let sum_engines stripes f =
  Array.fold_left (fun acc b -> acc + f (Batcher.engine b)) 0 (Stripes.batchers stripes)

let render_stats_striped ?read_errors stripes =
  let buf = Buffer.create 160 in
  let field name v =
    Buffer.add_char buf ' ';
    Buffer.add_string buf name;
    Buffer.add_char buf '=';
    Rat.add_int_to_buffer buf v
  in
  Buffer.add_string buf "stats";
  field "pending" (Stripes.pending stripes);
  field "shops" (sum_engines stripes (fun e -> List.length (Admission.shops e)));
  field "tasks" (sum_engines stripes Admission.n_committed);
  (match Stripes.cache_stats stripes with
  | None -> Buffer.add_string buf " cache=off"
  | Some { Cache.hits; misses; evictions; size } ->
      field "cache_hits" hits;
      field "cache_misses" misses;
      field "cache_evictions" evictions;
      field "cache_size" size);
  Option.iter (field "read_errors") read_errors;
  Buffer.contents buf

(* The [metrics] reply: live batcher-derived exposition lines (always
   available, registry on or off) followed by the registry's own
   exposition.  The live names are chosen disjoint from any registry
   name's mangling, so the concatenation never repeats a sample.
   [read_errors] comes from a listener and adds the listener's
   samples. *)
let render_metrics_striped ?read_errors stripes =
  let module Obs = E2e_obs.Obs in
  let line ?labels name v = Obs.exposition_line ?labels name v in
  let iline ?labels name v = line ?labels name (float_of_int v) in
  let svc = Stripes.service_stats stripes in
  let live =
    [
      iline "serve_queue_depth" (Stripes.pending stripes);
      iline "serve_committed_shops" (sum_engines stripes (fun e -> List.length (Admission.shops e)));
      iline "serve_committed_tasks" (sum_engines stripes Admission.n_committed);
      iline "serve_submitted_total" svc.Batcher.submitted;
      iline "serve_backpressure_rejections_total" svc.Batcher.rejected_backpressure;
      iline "serve_batches_completed_total" svc.Batcher.batches;
      iline "serve_batched_requests_total" svc.Batcher.batched_requests;
      iline "serve_max_batch_size" svc.Batcher.max_batch;
      iline "serve_budget_exhaustions_total" svc.Batcher.budget_exhausted;
      iline "serve_verify_downgrades_total" svc.Batcher.verify_failures;
      iline "serve_incremental_hits_total" svc.Batcher.inc_hits;
      iline "serve_incremental_misses_total" svc.Batcher.inc_misses;
      iline "serve_warm_resident_tasks" (sum_engines stripes Admission.warm_resident);
    ]
    @ (match read_errors with
      | None -> []
      | Some n ->
          [
            iline "serve_stripes" (Stripes.count stripes);
            iline "serve_transport_read_errors_total" n;
          ])
    @ List.map
        (fun (shop, n) ->
          iline ~labels:[ ("shop", shop) ] "serve_shop_resident_tasks" n)
        svc.Batcher.resident
    @ (match Stripes.cache_stats stripes with
      | None -> []
      | Some { Cache.hits; misses; evictions; size } ->
          [
            iline "serve_cache_hits_total" hits;
            iline "serve_cache_misses_total" misses;
            iline "serve_cache_evictions_total" evictions;
            iline "serve_cache_size" size;
          ])
    @ List.concat_map
        (fun (shop, (admitted, rejected, undecided)) ->
          List.map
            (fun (verdict, n) ->
              iline
                ~labels:[ ("shop", shop); ("verdict", verdict) ]
                "serve_shop_verdicts_total" n)
            [ ("admitted", admitted); ("rejected", rejected); ("undecided", undecided) ])
        svc.Batcher.verdicts
  in
  let lines = live @ Obs.exposition_lines () in
  "metrics " ^ String.concat ";" lines
