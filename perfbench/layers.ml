(* The traced run: the same stream replayed in-process through each
   layer's public functions, timed from outside the program.

   Pass 1 (pipeline) walks every request through the serving path one
   call at a time — Wire.read_line, Protocol.parse_request,
   Admission.prepare, Admission.try_incremental, Cache.find,
   Admission.solve_prepared, Cache.add, Admission.relabel,
   Admission.verify_decision, Admission.commit, Protocol.render_reply,
   Wire.write_all — in the order [Admission.decide_prepared] uses: an
   untraced warm-up, then a traced and an untraced timed pass.  Each request span's children tile it; the
   remainder is its untraced self time.  Pass 2 drives a Stripes batcher
   with the closed-loop window (Batcher.step, queue wait, batch size,
   Protocol.render_metrics_striped at the scrape cadence).  Pass 3
   (cluster workloads) sends each request through an in-process
   Dispatcher to two shard processes and the same line straight to a
   mirror pair of shards: Dispatcher.hop is the difference.  Every pass's
   replies must equal the reference reply log. *)

module Admission = E2e_serve.Admission
module Batcher = E2e_serve.Batcher
module Cache = E2e_serve.Cache
module Protocol = E2e_serve.Protocol
module Stripes = E2e_serve.Stripes
module Wire = E2e_serve.Wire
module Dispatcher = E2e_cluster.Dispatcher
module Registry = E2e_cluster.Registry
module Recurrence_shop = E2e_model.Recurrence_shop

let ops =
  [| "Wire.read_line"; "Protocol.parse_request"; "Admission.prepare"; "Admission.try_incremental";
     "Cache.find"; "Admission.solve_prepared"; "Cache.add"; "Admission.relabel";
     "Admission.verify_decision"; "Admission.commit"; "Protocol.render_reply"; "Wire.write_all";
     "Batcher.step"; "Batcher.queue_wait"; "Protocol.render_metrics_striped"; "Registry.route";
     "Dispatcher.dispatch"; "Dispatcher.hop" |]

let op_index name =
  let rec go i = if ops.(i) = name then i else go (i + 1) in
  go 0

let request_op = -1

(* Spans kept in memory as parallel growable arrays and written out when
   the run ends. *)
type spans = {
  mutable n : int;
  mutable name : int array;  (** Index into [ops]; [request_op] for a request span. *)
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;  (** Span index of the parent; -1 for roots. *)
  mutable req : int array;  (** Stream index of the request. *)
}

let spans = { n = 0; name = [||]; start = [||]; stop = [||]; parent = [||]; req = [||] }

let add_span ~name ~start ~stop ~parent ~req =
  if spans.n = Array.length spans.name then begin
    let grow a d =
      let b = Array.make (max 1024 (2 * spans.n)) d in
      Array.blit a 0 b 0 spans.n;
      b
    in
    spans.name <- grow spans.name 0;
    spans.start <- grow spans.start 0.;
    spans.stop <- grow spans.stop 0.;
    spans.parent <- grow spans.parent 0;
    spans.req <- grow spans.req 0
  end;
  let i = spans.n in
  spans.name.(i) <- name;
  spans.start.(i) <- start;
  spans.stop.(i) <- stop;
  spans.parent.(i) <- parent;
  spans.req.(i) <- req;
  spans.n <- i + 1;
  i

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "span\tname\tstart_us\tend_us\tparent\treq\n";
      for i = 0 to spans.n - 1 do
        Printf.fprintf oc "%d\t%s\t%.1f\t%.1f\t%d\t%d\n" i
          (if spans.name.(i) = request_op then "request" else ops.(spans.name.(i)))
          (spans.start.(i) *. 1e6) (spans.stop.(i) *. 1e6) spans.parent.(i) spans.req.(i)
      done)

(* Child spans of the request being traced: (op, start, stop). *)
let children = ref []
let tracing = ref false

let span op f =
  if !tracing then begin
    let t0 = Client.now () in
    let r = f () in
    children := (op, t0, Client.now ()) :: !children;
    r
  end
  else f ()

(* Events of standalone ops (passes 2 and 3): durations per op. *)
let samples = Array.make (Array.length ops) []
let sample op d = samples.(op) <- d :: samples.(op)

type counts = {
  mutable solves : int;
  mutable portfolio : int;
  mutable adds : int;
  mutable inc_hits : int;
  mutable lookups : int;
  mutable hits : int;
  mutable replies : int;
  mutable reply_bytes : int;
  mutable mismatches : int;
  mutable tiling_errors : int;
  mutable self_time : float;
  mutable request_time : float;
}

let counts =
  { solves = 0; portfolio = 0; adds = 0; inc_hits = 0; lookups = 0; hits = 0; replies = 0;
    reply_bytes = 0; mismatches = 0; tiling_errors = 0; self_time = 0.; request_time = 0. }

let reset () =
  spans.n <- 0;
  Array.fill samples 0 (Array.length samples) [];
  counts.solves <- 0;
  counts.portfolio <- 0;
  counts.adds <- 0;
  counts.inc_hits <- 0;
  counts.lookups <- 0;
  counts.hits <- 0;
  counts.replies <- 0;
  counts.reply_bytes <- 0;
  counts.mismatches <- 0;
  counts.tiling_errors <- 0;
  counts.self_time <- 0.;
  counts.request_time <- 0.

let budget = Batcher.default_config.budget

(* One request through the serving path, call by call. *)
let serve_one ~cache ~keyer engine reader wfd =
  let o = op_index in
  let line =
    match span (o "Wire.read_line") (fun () -> Wire.read_line reader) with
    | `Line l -> l
    | _ -> failwith "stream file ended early"
  in
  let req =
    match span (o "Protocol.parse_request") (fun () -> Protocol.parse_request line) with
    | Ok (Protocol.Request r) -> r
    | _ -> failwith ("unparseable stream line: " ^ line)
  in
  let reply =
    match span (o "Admission.prepare") (fun () -> Admission.prepare ~keyer !engine req) with
    | Error reply ->
        engine := span (o "Admission.commit") (fun () -> Admission.commit !engine req None);
        reply
    | Ok p ->
        if p.Admission.is_add && !tracing then counts.adds <- counts.adds + 1;
        let canonical, state =
          match span (o "Admission.try_incremental") (fun () -> Admission.try_incremental p) with
          | Some r ->
              if !tracing then counts.inc_hits <- counts.inc_hits + 1;
              r
          | None -> (
              let key = Admission.cache_key ~budget ?hint:(Admission.hint_of p) p.canon in
              if !tracing then counts.lookups <- counts.lookups + 1;
              match span (o "Cache.find") (fun () -> Cache.find cache key) with
              | Some s ->
                  if !tracing then counts.hits <- counts.hits + 1;
                  (s.Admission.decision, Admission.state_of_cached s)
              | None ->
                  let s, state =
                    span (o "Admission.solve_prepared") (fun () -> Admission.solve_prepared ~budget p)
                  in
                  if !tracing then begin
                    counts.solves <- counts.solves + 1;
                    match s.decision with
                    | Admission.Admitted { algo = "portfolio"; _ } -> counts.portfolio <- counts.portfolio + 1
                    | _ -> ()
                  end;
                  span (o "Cache.add") (fun () -> Cache.add cache key s);
                  (s.decision, state))
        in
        let decision =
          span (o "Admission.relabel") (fun () -> Admission.relabel p.canon p.candidate canonical)
        in
        let decision = span (o "Admission.verify_decision") (fun () -> Admission.verify_decision decision) in
        Admission.record_decision decision;
        engine :=
          span (o "Admission.commit") (fun () ->
              Admission.commit ~prepared:p ~state !engine req (Some decision));
        Admission.Decided
          { shop = Batcher.shop_of req; n_tasks = Recurrence_shop.n_tasks p.candidate; decision }
  in
  let out = span (o "Protocol.render_reply") (fun () -> Protocol.render_reply (Batcher.Reply reply)) in
  span (o "Wire.write_all") (fun () -> Wire.write_all wfd (out ^ "\n"));
  out

(* Check that the children of one request tile it in order, record the
   spans and the untraced remainder. *)
let close_request ~req ~t0 ~t1 =
  let parent = add_span ~name:request_op ~start:t0 ~stop:t1 ~parent:(-1) ~req in
  let kids = List.rev !children in
  children := [];
  let covered = ref 0. and cursor = ref t0 in
  List.iter
    (fun (op, s, e) ->
      if s < !cursor || e < s || e > t1 then counts.tiling_errors <- counts.tiling_errors + 1;
      cursor := e;
      covered := !covered +. (e -. s);
      sample op (e -. s);
      ignore (add_span ~name:op ~start:s ~stop:e ~parent ~req))
    kids;
  counts.request_time <- counts.request_time +. (t1 -. t0);
  counts.self_time <- counts.self_time +. (t1 -. t0 -. !covered)

(* Replay [lines] through the pipeline; requests from [n_seed] on are
   timed (and traced when [trace]).  Returns the timed wall-clock and the
   keyer's reuse counts. *)
let pipeline_pass ~lines ~n_seed ~expected ~trace ~stream_file =
  Out_channel.with_open_bin stream_file (fun oc ->
      Array.iter (fun l -> output_string oc l; output_char oc '\n') lines);
  let rfd = Unix.openfile stream_file [ Unix.O_RDONLY ] 0 in
  let reader = Wire.make_reader rfd in
  let prd, pwr = Unix.pipe ~cloexec:true () in
  let drain =
    Thread.create
      (fun () ->
        let b = Bytes.create 65536 in
        while Unix.read prd b 0 65536 > 0 do () done)
      ()
  in
  let cache = Cache.create ~capacity:Batcher.default_config.cache_capacity in
  let keyer = Cache.Keyer.create () in
  let engine = ref Admission.empty in
  let timed = ref 0. in
  Array.iteri
    (fun i _ ->
      tracing := trace && i >= n_seed;
      let t0 = Client.now () in
      let out = serve_one ~cache ~keyer engine reader pwr in
      let t1 = Client.now () in
      if i >= n_seed then timed := !timed +. (t1 -. t0);
      if !tracing then begin
        close_request ~req:i ~t0 ~t1;
        counts.replies <- counts.replies + 1;
        counts.reply_bytes <- counts.reply_bytes + String.length out + 1
      end;
      if Digest.string out <> expected.(i) then counts.mismatches <- counts.mismatches + 1)
    lines;
  tracing := false;
  let reuse = Cache.Keyer.stats keyer in
  Unix.close pwr;
  Thread.join drain;
  Unix.close prd;
  Unix.close rfd;
  Sys.remove stream_file;
  (!timed, reuse)

(* Pass 2: the batcher under the closed-loop window, with a metrics
   render every [every] requests of the paced part [lo, hi) — the
   operator's cadence in the end-to-end run. *)
let batcher_pass ~reqs ~n_seed ~expected ~window ~scrapes:(lo, hi, every) =
  let s = Stripes.create () in
  let b = Stripes.batcher s 0 in
  let n = Array.length reqs in
  let submitted_at = Array.make n 0. in
  let next = ref 0 and answered = ref 0 in
  let batches = ref 0 and batched = ref 0 in
  while !answered < n do
    while !next < n && !next - !answered < window do
      submitted_at.(!next) <- Client.now ();
      (match Stripes.submit s reqs.(!next) with
      | `Queued _ -> ()
      | `Overloaded -> failwith "batcher refused a request inside its window");
      incr next;
      if !next > lo && !next <= hi && (!next - lo) mod every = 0 then begin
        let t0 = Client.now () in
        ignore (Protocol.render_metrics_striped s);
        sample (op_index "Protocol.render_metrics_striped") (Client.now () -. t0)
      end
    done;
    let t0 = Client.now () in
    let replies = Batcher.step b in
    let t1 = Client.now () in
    if !answered >= n_seed then begin
      sample (op_index "Batcher.step") (t1 -. t0);
      incr batches;
      batched := !batched + List.length replies
    end;
    List.iter
      (fun (_, tr, reply) ->
        E2e_serve.Rtrace.finish tr;
        let i = !answered in
        if i >= n_seed then sample (op_index "Batcher.queue_wait") (t0 -. submitted_at.(i));
        if Digest.string (Protocol.render_reply (Batcher.Reply reply)) <> expected.(i) then
          counts.mismatches <- counts.mismatches + 1;
        incr answered)
      replies
  done;
  float_of_int !batched /. float_of_int (max 1 !batches)

(* Pass 3: through an in-process Dispatcher over shard processes A, and
   the same line straight to the mirror shard B that owns the shop. *)
let cluster_pass ~bin ~dir ~lines ~reqs ~n_seed ~expected ~shards =
  let serve tag i =
    Client.spawn ~exe:(Filename.concat bin "serve.exe") ~args:[ "--tcp"; "0" ]
      ~log:(Filename.concat dir (Printf.sprintf "trace-%s%d.log" tag i))
      ~name:"e2e-serve"
  in
  let a = List.init shards (serve "a") and b = List.init shards (serve "b") in
  let d = Dispatcher.create (List.map (fun p -> ("127.0.0.1", p.Client.port)) a) in
  let registry = Dispatcher.registry d in
  let direct =
    List.map2
      (fun pa pb ->
        let c = Client.connect pb.Client.port in
        ignore (Client.read_one c ~timeout:10.);
        (Registry.id_of ~host:"127.0.0.1" ~port:pa.Client.port, c))
      a b
  in
  let routed = Hashtbl.create 4 in
  let pending = ref [] in
  let sticky = Dispatcher.sticky () in
  let mu = Mutex.create () and cv = Condition.create () in
  let round_trip i =
    let line = lines.(i) and shop = Batcher.shop_of reqs.(i) in
    let timed = i >= n_seed in
    let t0 = Client.now () in
    let owner = Registry.route registry shop in
    let t1 = Client.now () in
    let id = match owner with Some e -> e.Registry.id | None -> failwith "no live shard" in
    let got = ref None in
    Dispatcher.dispatch d ~sticky ~shop line (fun r ->
        Mutex.lock mu;
        got := Some (r, Client.now ());
        Condition.signal cv;
        Mutex.unlock mu);
    if timed then
      pending :=
        float_of_int
          (List.fold_left (fun acc s -> acc + s.Dispatcher.shard_pending) 0 (Dispatcher.stats d).per_shard)
        :: !pending;
    Mutex.lock mu;
    while !got = None do Condition.wait cv mu done;
    Mutex.unlock mu;
    let via, t2 = Option.get !got in
    let c = List.assoc id direct in
    let t3 = Client.now () in
    Client.send c line;
    Client.flush c;
    let straight = Client.read_one c ~timeout:30. in
    let t4 = Client.now () in
    if timed then begin
      sample (op_index "Registry.route") (t1 -. t0);
      sample (op_index "Dispatcher.dispatch") (t2 -. t1);
      sample (op_index "Dispatcher.hop") (t2 -. t1 -. (t4 -. t3));
      Hashtbl.replace routed id (1 + Option.value (Hashtbl.find_opt routed id) ~default:0)
    end;
    if Digest.string via <> expected.(i) || Digest.string straight <> expected.(i) then
      counts.mismatches <- counts.mismatches + 1
  in
  Fun.protect
    ~finally:(fun () ->
      Dispatcher.shutdown d;
      List.iter (fun (_, c) -> Client.close c) direct;
      List.iter Client.stop (a @ b))
    (fun () ->
      Array.iteri (fun i _ -> round_trip i) lines;
      let per = Hashtbl.fold (fun _ v acc -> v :: acc) routed [] in
      let total = List.fold_left ( + ) 0 per in
      let balance =
        if total = 0 then 0.
        else float_of_int (List.fold_left max 0 per) /. (float_of_int total /. float_of_int shards)
      in
      let mean_pending =
        match !pending with
        | [] -> 0.
        | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
      in
      (balance, mean_pending))
