(** The historical [Format]/[Printf] renderer and list-based parser of
    the serve protocol, retained as the differential reference for the
    single-pass codec in {!E2e_serve.Protocol},
    {!E2e_model.Instance_io}, {!E2e_schedule.Schedule.to_csv} and
    {!E2e_rat.Rat}'s digit writer and scanner.

    Requests are split with [String.split_on_char]/[String.trim] copies
    after mapping [;] to newlines, numbers go through [int_of_string]
    (behind an up-front character-class check of the literal grammar
    [[-]D], [[-]D/D], [[-][D].D]), and replies are printed with
    [Format.asprintf] and [Rat.to_string] and then re-framed.  Slow but
    transparent — exactly what the production codec must agree with
    byte for byte.  The [codec] fuzz class ({!Codec_fuzz}) compares the
    two on random outcomes and random (well-formed and byte-mutated)
    request lines. *)

val of_decimal_string : string -> E2e_rat.Rat.t
(** Same contract as {!E2e_rat.Rat.of_decimal_string}. *)

val parse_instance : string -> (E2e_model.Recurrence_shop.t, string) result
(** Same contract as {!E2e_model.Instance_io.parse}. *)

val task_line : E2e_model.Task.t -> string
val instance_to_string : E2e_model.Recurrence_shop.t -> string
val to_csv : E2e_schedule.Schedule.t -> string

val parse_request : string -> (E2e_serve.Protocol.item, string) result
val render_request : E2e_serve.Admission.request -> string
val render_reply : ?schedules:bool -> E2e_serve.Batcher.outcome -> string
val render_hello : requested:string -> string
