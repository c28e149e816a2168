(** Plain-text task-set format, for the command-line front end.

    Syntax (one directive per line, [#] starts a comment):

    {v
    # distributed control system
    visit 1 2 3 2 4          # optional; identity sequence if absent
    task <release> <deadline> <tau_1> ... <tau_k>
    task ...
    v}

    Numbers are decimals ([2.75]) or fractions ([11/4]), parsed exactly.
    The [visit] directive uses the paper's 1-based processor numbers.
    Every [task] line must list one processing time per visit position. *)

val parse : string -> (Recurrence_shop.t, string) result
(** Parse the contents of a file.  The error string carries a line
    number.  Each line is trimmed of surrounding whitespace after its
    comment is removed; words are separated by spaces and tabs.  The
    first error wins. *)

val parse_framed : string -> int -> int -> (Recurrence_shop.t, string) result
(** [parse_framed s pos stop] parses [s] in [[pos, stop)] as {!parse}
    would parse it with every [;] replaced by a newline — the framed
    one-line form of the serve protocol — in one pass over the
    offsets, without copying the text.  Line numbers in errors count
    [;]-separated directives from 1. *)

val parse_file : string -> (Recurrence_shop.t, string) result
(** Read and parse a file by name (errors include I/O failures). *)

val to_string : Recurrence_shop.t -> string
(** Render in the same format ([parse (to_string s)] round-trips). *)

val add_task : Buffer.t -> E2e_rat.Rat.t -> E2e_rat.Rat.t -> E2e_rat.Rat.t array -> unit
(** [add_task buf release deadline proc_times] appends one [task ...]
    directive (no terminator), numbers via {!E2e_rat.Rat.add_to_buffer}. *)

val add_directives : sep:string -> Buffer.t -> Recurrence_shop.t -> unit
(** Append the directives of {!to_string} — the [visit] line when the
    sequence is not the identity, then one [task] line per task —
    separated by [sep], with no terminator after the last. *)

val task_line : Task.t -> string
(** One [task ...] line (with trailing newline), exactly as {!to_string}
    renders it.  Task ids do not appear in the rendering, so the line is
    a pure function of the task's (release, deadline, processing times) —
    the property the serve-layer cache relies on to reuse rendered lines
    across relabellings and committed-set merges. *)
