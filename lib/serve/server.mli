(** Transports for the admission service.

    {!session} runs the framed line protocol ({!Protocol}) over a pair
    of raw fds; {!serve_stdio} binds it to stdin/stdout and
    {!serve_tcp} to a concurrent multi-domain TCP front end.  Both run
    one session engine: the same bounded {!Wire} reader (so the 1 MiB
    request-line cap and trailing [\r] stripping apply identically),
    the same {!Wire} reply slots and writer thread, and the same
    drainer domain per {!Stripes} stripe.

    {b Chunks and the barrier.}  A session's reader takes a {e chunk}:
    it blocks for one line, then takes every further line it can read
    without waiting on the peer ({!Wire.ready_line}), up to
    [min batch window] lines (blank and comment lines count).  It
    parses the whole chunk, submits its requests to each stripe at
    once, and waits until they are all answered; only then does it
    render the chunk's [stats]/[metrics] and read the next chunk.  So
    a control reply observes every earlier request of its own
    connection; an interactive client is answered as soon as its line
    arrives; and a regular file, always ready, is cut every
    [min batch window] lines whatever its line lengths, so a stdio
    replay's batches — and its [stats]/[metrics] bytes — depend only
    on the file.
    Replies always come in request order, one line per non-blank
    request, and with disjoint shop namespaces each connection's
    replies are a deterministic function of its request stream at
    every [jobs] value and stripe count — the stdio smoke test in
    [make check] compares them byte-for-byte against a golden file.
    [stats]/[metrics] on a TCP server shared by several connections
    also see the others' work and are the one timing-dependent
    exception.

    When request tracing is active ({!Rtrace.active}) the drainer
    closes each request's render stage as its reply line is rendered,
    completing the per-request JSONL trace. *)

val session : ?schedules:bool -> Stripes.t -> Unix.file_descr -> Unix.file_descr -> unit
(** [session stripes input output] serves one session: write
    {!Protocol.greeting} to [output], then answer request lines read
    from [input] until end-of-stream or [quit], with one drainer
    domain per stripe for the session's lifetime.  The reply window is
    {!Wire.make_conn}'s default.  A session has no listener, so its
    [stats]/[metrics] replies carry no [read_errors=],
    [serve_stripes] or [serve_transport_read_errors_total].  An
    oversized request line (longer than {!Wire.max_line}) is answered
    with an [error] reply and ends the session — the line was never
    fully read, so there is no safe resynchronisation point.  Neither
    fd is closed. *)

val serve_stdio : ?schedules:bool -> Stripes.t -> unit
(** {!session} over stdin/stdout. *)

val serve_tcp :
  ?schedules:bool ->
  ?host:string ->
  ?max_connections:int ->
  ?accept_pool:int ->
  ?window:int ->
  ?ready:(int -> unit) ->
  ?control:Listener.control ->
  port:int ->
  Stripes.t ->
  unit
(** Serve the line protocol over {!Listener.serve} (which see for
    [host], [port], [accept_pool], [window], [ready],
    [max_connections], [control] and the accept/teardown hardening),
    greeting each connection with {!Protocol.greeting}: the accept
    domains run the session readers, and one drainer domain per
    stripe of the given {!Stripes.t} steps that stripe's batcher
    ([Stripes.create ~stripes:1] reproduces the single-drainer server
    exactly).  Committed state persists across connections.  Requests
    already queued in a batcher are still answered when [control]
    shuts the listener down.  Hard read errors (a reset or
    half-closed peer, as opposed to a clean EOF) are counted and
    surfaced as [read_errors=] in [stats] and
    [serve_transport_read_errors_total] in [metrics]. *)
