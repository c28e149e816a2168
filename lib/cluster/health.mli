(** Status checking: bounded shard probes and the liveness loop.

    A probe is one short-lived protocol session against a shard's
    serving port — connect (bounded by [timeout]), greeting, [ping],
    [pong] — exactly what a client would experience.  The checker
    thread probes every registered shard each [interval] and feeds
    outcomes to {!Registry.note_probe}, so a shard is marked dead
    after the registry's fail-threshold consecutive failures and
    revived by its first successful probe. *)

val connect :
  ?timeout:float ->
  ?rw_timeout:bool ->
  host:string ->
  port:int ->
  unit ->
  (Unix.file_descr, string) result
(** TCP connect with a bounded handshake ([timeout], default 1s; the
    blocking connect runs non-blocking under a [select] deadline).
    [rw_timeout] (default [false]) additionally arms
    [SO_RCVTIMEO]/[SO_SNDTIMEO] for bounded one-shot sessions; the
    dispatcher's persistent upstream connections leave it off so an
    idle socket never times out a read.  Never raises: socket
    exhaustion, an immediate connect failure and a timeout are all
    [Error], so a caller may hold a lock across it. *)

val rpc :
  ?timeout:float ->
  host:string ->
  port:int ->
  string list ->
  (string list, string) result
(** One bounded session: connect, consume the greeting (must start
    with ["e2e-"]), send each request line and read its reply line,
    send [quit], close.  Every read and write is bounded by [timeout]
    (default 1s); any timeout or short read fails the call.  Used by
    the prober ([ping]), the dispatcher's metrics aggregation and the
    shard-side registration hook. *)

val probe : ?timeout:float -> host:string -> port:int -> unit -> bool
(** [rpc ["ping"]], true iff the reply is a [pong]. *)

type checker

val start :
  ?interval:float ->
  ?timeout:float ->
  ?on_event:(string -> [ `Died | `Revived ] -> unit) ->
  Registry.t ->
  checker
(** Spawn the checker thread: probe every shard in the registry each
    [interval] (default 1s) seconds and record outcomes.  [on_event]
    observes state transitions (for logging). *)

val stop : checker -> unit
(** Stop and join the checker thread (prompt: the loop naps in short
    slices).  Idempotent. *)
