(** Differential fuzzing of the serve protocol codec: the single-pass
    scanner and buffer renderer of {!E2e_serve.Protocol} (with
    {!E2e_model.Instance_io}, {!E2e_schedule.Schedule.to_csv} and the
    {!E2e_rat.Rat} digit writer) against the retained [Format]/[Printf]
    and list-based reference {!Codec_ref}.

    Each trial generates
    - a random outcome — [admitted] with a random rational schedule
      (negative values, numerators up to [+-2^61], denominators other
      than 1), every certificate kind (window fields and processor
      numbers reaching [max_int] and the power-of-ten digit
      boundaries), [undecided], [info], [dropped], [overloaded], and
      [error] replies whose messages carry newlines — rendered with and
      without schedules;
    - a random request, rendered by both codecs and parsed back by
      both, plus byte mutations of the rendered line;
    - a hand-written edge-shape line (tabs, CR, comments, stray [;],
      OCaml-style literals, overflowing digits) and its byte mutations,
      also fed to both task-set parsers as file text.

    Every rendering must be byte-identical, and every parse must return
    the same value or the same error text (an exception on either side
    counts, and must be the same exception).  Trial [t] draws from
    [Prng.of_path [| seed; code; t |]] and trials run sequentially, so
    campaign output is byte-identical at every [-j]. *)

type finding = {
  trial : int;
  check : string;  (** Which comparison failed, e.g. ["parse_request"]. *)
  input : string;  (** The outcome's reference rendering, or the input line. *)
  codec : string;  (** The production codec's answer (escaped). *)
  reference : string;  (** The reference's answer (escaped). *)
}

type report = { seed : int; trials : int; agreed : int; findings : finding list }

val code : int
(** Stable {!E2e_prng.Prng.of_path} component for the [codec] class. *)

val run : seed:int -> trials:int -> unit -> report

val pp_report : Format.formatter -> report -> unit
(** One summary line, then every finding — deterministic. *)
