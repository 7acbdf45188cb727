(* The benchmark harness. One invocation measures one workload:

     harness --workload NAME --seed N --seconds S --trace 0|1

   It drives the library calls pstream_run makes for the workload's mode,
   with pstream_run's defaults (eager purge, element-at-a-time driving,
   telemetry with a watchdog, sampling every 100 elements), over an input
   generated up front from the seed. Every run's results are checked
   against the relational oracle. The last line of standard output is one
   JSON object: correctness, attempted and failed results, and the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

   --hashes prints the output hashes of one run instead, for the parity
   check against the pstream_run binary (see parity.sh). *)

module Element = Streams.Element
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Cjq = Query.Cjq
module Config = Engine.Executor.Config
module Pexec = Engine.Parallel_executor
module Mexec = Engine.Multi_executor

let now_ns = Harness_clock.now_ns

(* --- workloads ------------------------------------------------------- *)

type mode =
  | Sequential
  | Sharded of { shards : int; checkpoint_every : int }
  | Multi

type workload = {
  name : string;
  files : string list;  (** query files, relative to the checkout root *)
  mode : mode;
  rounds : int;
  fanin : int;
  lag : int;
}

(* pstream_run's defaults: --sample 100, --policy eager. *)
let sample_every = 100
let policy = Engine.Purge_policy.Eager

(* Why each workload exists is recorded in README.md and BENCHMARK.json. *)
let workloads =
  [
    {
      name = "triangle_const";
      files = [ "examples/triangle.query" ];
      mode = Sequential;
      rounds = 3000;
      fanin = 1;
      lag = 0;
    };
    {
      name = "triangle_deep_sharded";
      files = [ "perfbench/queries/triangle_deep.query" ];
      mode = Sharded { shards = 1; checkpoint_every = 4 };
      rounds = 1000;
      fanin = 4;
      lag = 40;
    };
    {
      name = "star_shared";
      files = [ "examples/star_rst.query"; "examples/star_rsu.query" ];
      mode = Multi;
      rounds = 600;
      fanin = 2;
      lag = 5;
    };
  ]

let qid_of file = Filename.remove_extension (Filename.basename file)
let load_queries w = List.map (fun f -> (qid_of f, Query.Parser.parse_file f)) w.files

let mode_name = function
  | Sequential -> "sequential"
  | Sharded _ -> "sharded"
  | Multi -> "multi-query"

(* Layer names used for spans; the module each call enters. *)
let engine_layer w =
  match w.mode with
  | Sequential -> "Engine.Executor"
  | Sharded _ -> "Engine.Parallel_executor"
  | Multi -> "Engine.Multi_executor"

(* --- input ----------------------------------------------------------- *)

type input = {
  trace : Streams.Trace.t;
  elements : Element.t array;
  schemes : Streams.Scheme.Set.t;
}

let generate w queries ~seed ~rounds =
  let cfg =
    {
      Workload.Synth.rounds;
      tuples_per_round = w.fanin;
      punct_lag = w.lag;
      trace_seed = seed;
    }
  in
  let trace =
    match w.mode with
    | Multi ->
        (* the union of the queries' stream definitions, first declaration
           first, as pstream_run --query builds it *)
        let seen = Hashtbl.create 8 in
        let defs =
          List.concat_map
            (fun (_, q) ->
              List.filter
                (fun d ->
                  let n = Streams.Stream_def.name d in
                  if Hashtbl.mem seen n then false
                  else (
                    Hashtbl.add seen n ();
                    true))
                (Cjq.stream_defs q))
            queries
        in
        Workload.Synth.round_trace_defs defs cfg
    | Sequential | Sharded _ -> Workload.Synth.round_trace (snd (List.hd queries)) cfg
  in
  {
    trace;
    elements = Array.of_list trace;
    schemes =
      Streams.Scheme.Set.of_list
        (List.concat_map
           (fun (_, q) -> Streams.Scheme.Set.schemes (Cjq.scheme_set q))
           queries);
  }

(* --- set-up ---------------------------------------------------------- *)

type engine =
  | Seq_engine of {
      compiled : Engine.Executor.compiled;
      telemetry : Engine.Telemetry.t;
    }
  | Par_engine of Pexec.t
  | Multi_engine of { m : Mexec.t; telemetry : Engine.Telemetry.t }

(* One set-up phase: name, the module it runs in, start and end. *)
type phase = { phase : string; layer : string; t0 : int; t1 : int }

let phase_ns ps name =
  List.fold_left
    (fun acc p -> if p.phase = name then acc + (p.t1 - p.t0) else acc)
    0 ps

let setup_ns ps = List.fold_left (fun acc p -> acc + (p.t1 - p.t0)) 0 ps

(* pstream_run's telemetry: enabled, no event sink, a watchdog. *)
let cli_telemetry () =
  Engine.Telemetry.create ~sink:Obs.Sink.null
    ~watchdog:(Obs.Watchdog.create ()) ()

let sequential_engine ~instrumented query plan =
  let telemetry =
    if instrumented then cli_telemetry () else Engine.Telemetry.null
  in
  Seq_engine
    {
      compiled =
        Engine.Executor.compile
          ~config:(Config.make ~policy ~telemetry ())
          query plan;
      telemetry;
    }

let require_safe q =
  if not (Core.Checker.is_safe_kind q) then
    failwith "benchmark query is not safe"

(* [setup w] — parse, safety check, plan and compile/create, as
   pstream_run does before streaming. [instrumented:false] is the
   Telemetry.null (uninstrumented) engine of the traced run. *)
let setup ?(instrumented = true) w =
  let phases = ref [] in
  let timed phase layer f =
    let t0 = now_ns () in
    let x = f () in
    phases := { phase; layer; t0; t1 = now_ns () } :: !phases;
    x
  in
  let queries = timed "parse" "Query.Parser" (fun () -> load_queries w) in
  let engine =
    match w.mode with
    | Multi ->
        let reg =
          timed "check" "Core.Checker" (fun () ->
              let reg =
                Query.Query_registry.create
                  (List.map
                     (fun (qid, query) -> { Query.Query_registry.qid; query })
                     queries)
              in
              List.iter (fun (_, q) -> require_safe q) queries;
              reg)
        in
        (* pstream_run plans once to print the shared groups; create plans
           again internally *)
        ignore
          (timed "plan" "Core.Planner" (fun () ->
               Core.Planner.plan_shared ~share:true reg));
        timed "compile" "Engine.Multi_executor.create" (fun () ->
            let telemetry =
              if instrumented then cli_telemetry () else Engine.Telemetry.null
            in
            Multi_engine
              {
                m =
                  Mexec.create
                    ~config:(Config.make ~policy ~telemetry ())
                    ~share:true reg;
                telemetry;
              })
    | Sequential | Sharded _ -> (
        let query = snd (List.hd queries) in
        timed "check" "Core.Checker" (fun () -> require_safe query);
        let plan =
          timed "plan" "Query.Plan" (fun () ->
              Query.Plan.mjoin (Cjq.stream_names query))
        in
        match w.mode with
        | Sharded { shards; checkpoint_every } ->
            timed "compile" "Engine.Parallel_executor.create" (fun () ->
                let fingerprint =
                  Engine.Checkpoint.fingerprint
                    [
                      ("query", Fmt.str "%a" Cjq.pp query);
                      ("policy", Fmt.str "%a" Engine.Purge_policy.pp policy);
                      ("shards", string_of_int shards);
                      ("sample_every", string_of_int sample_every);
                      ("rounds", string_of_int w.rounds);
                      ("fanin", string_of_int w.fanin);
                      ("lag", string_of_int w.lag);
                    ]
                in
                Par_engine
                  (Pexec.create
                     ~config:(Config.make ~policy ())
                     ?watchdog:
                       (if instrumented then Some (Obs.Watchdog.create ())
                        else None)
                     ~instrument:instrumented
                     ~checkpoint:
                       (Engine.Checkpoint.config ~fingerprint
                          ~every:checkpoint_every ())
                     ~shards query plan))
        | Sequential | Multi ->
            timed "compile" "Engine.Executor.compile" (fun () ->
                sequential_engine ~instrumented query plan))
  in
  (engine, List.rev !phases)

(* --- streaming ------------------------------------------------------- *)

(* A result as it reached the caller: when, how many input elements had
   been pulled by then, and for which query. *)
type delivery = { at : int; pulled : int; qid : string; el : Element.t }

type run = {
  start_ns : int;  (** just before the engine's run call *)
  returned_ns : int;  (** the run call returned *)
  end_ns : int;  (** output hashes computed: the streaming phase ends *)
  pulls : int array;
      (** [pulls.(i)]: element [i] handed to the engine; [pulls.(n)]: the
          engine asked past the end of the input *)
  deliveries : delivery list;
  outputs : (string * Element.t list) list;  (** per query *)
  hashes : (string * string) list;  (** per query *)
  metrics : Engine.Metrics.t;
  alarms : int;
  commits : (int * int) list;
      (** sharded: (time, replay-history length) at each checkpoint cut *)
  registry : Obs.Registry.t option;
  checkpoint_events : (int * int) list;  (** (bytes, duration_ns) per cut *)
}

let stream_ns r = r.end_ns - r.start_ns

(* An identity operator handed to Executor.run as its [?sink]: the point
   where a sequential run's results reach the caller. *)
let timing_sink compiled on_data =
  let push e =
    if Element.is_data e then on_data e;
    [ e ]
  in
  {
    Engine.Operator.name = "bench_sink";
    out_schema = Engine.Executor.output_schema compiled;
    input_names = [];
    push;
    push_batch = Engine.Operator.batch_of_push push;
    flush = (fun () -> []);
    data_state_size = (fun () -> 0);
    punct_state_size = (fun () -> 0);
    index_state_size = (fun () -> 0);
    state_bytes = (fun () -> 0);
    stats = (fun () -> Engine.Operator.empty_stats);
    persistence = Engine.Operator.Stateless;
  }

(* [stream w engine elements] — one closed-loop replay: the engine pulls
   element [i+1] only after it is done with element [i]. *)
let stream w engine (elements : Element.t array) =
  let n = Array.length elements in
  let pulls = Array.make (n + 1) 0 in
  let pulled = ref 0 in
  let rec from i () =
    pulls.(i) <- now_ns ();
    if i >= n then Seq.Nil
    else begin
      pulled := i + 1;
      Seq.Cons (elements.(i), from (i + 1))
    end
  in
  let deliveries = ref [] in
  let deliver qid at el =
    if Element.is_data el then
      deliveries := { at; pulled = !pulled; qid; el } :: !deliveries
  in
  let label = List.hd w.files in
  let qid = qid_of label in
  let finish ~start_ns ~returned_ns ~end_ns ~outputs ~hashes ~metrics ~alarms
      ?(commits = []) ?registry ?(checkpoint_events = []) () =
    if pulls.(n) = 0 then pulls.(n) <- returned_ns;
    {
      start_ns;
      returned_ns;
      end_ns;
      pulls;
      deliveries = List.rev !deliveries;
      outputs;
      hashes;
      metrics;
      alarms;
      commits = List.rev commits;
      registry;
      checkpoint_events;
    }
  in
  match engine with
  | Seq_engine { compiled; telemetry } ->
      let sink = timing_sink compiled (fun e -> deliver qid (now_ns ()) e) in
      let start_ns = now_ns () in
      let r =
        Engine.Executor.run ~sample_every ~sink ~label compiled (from 0)
      in
      let returned_ns = now_ns () in
      Engine.Telemetry.close telemetry;
      let hash = Engine.Executor.output_hash r.Engine.Executor.outputs in
      let end_ns = now_ns () in
      finish ~start_ns ~returned_ns ~end_ns
        ~outputs:[ (qid, r.Engine.Executor.outputs) ]
        ~hashes:[ (qid, hash) ] ~metrics:r.Engine.Executor.metrics
        ~alarms:(List.length (Engine.Telemetry.alarms telemetry))
        ?registry:
          (if Engine.Telemetry.enabled telemetry then
             Some (Engine.Telemetry.registry telemetry)
           else None)
        ()
  | Par_engine p ->
      let committed = ref [] in
      let commits = ref [] in
      let on_commit els =
        let at = now_ns () in
        (* shards are parked at the cut's barrier, so the history length
           is read while quiescent *)
        commits := (at, Pexec.history_elems p) :: !commits;
        List.iter (deliver qid at) els;
        committed := els :: !committed
      in
      let start_ns = now_ns () in
      let r = Pexec.run ~sample_every ~label ~on_commit p (from 0) in
      let returned_ns = now_ns () in
      List.iter (deliver qid returned_ns) r.Pexec.outputs;
      let outputs = List.concat (List.rev (r.Pexec.outputs :: !committed)) in
      let hash = Engine.Executor.output_hash outputs in
      let end_ns = now_ns () in
      let events = Pexec.events p in
      finish ~start_ns ~returned_ns ~end_ns
        ~outputs:[ (qid, outputs) ]
        ~hashes:[ (qid, hash) ] ~metrics:r.Pexec.metrics
        ~alarms:(List.length (Pexec.alarms p))
        ~commits:!commits
        ?registry:
          (if events = [] then None
           else Some (Pexec.report p r).Obs.Report.registry)
        ~checkpoint_events:
          (List.filter_map
             (function
               | _, Obs.Event.Checkpoint { bytes; duration_ns; _ } ->
                   Some (bytes, duration_ns)
               | _ -> None)
             events)
        ()
  | Multi_engine { m; telemetry } ->
      let start_ns = now_ns () in
      (* per-query hashes are computed inside run *)
      let r = Mexec.run ~sample_every ~label:"multi-query" m (from 0) in
      let returned_ns = now_ns () in
      Engine.Telemetry.close telemetry;
      (* Multi_executor.run has no emission point: results reach the
         caller when it returns *)
      List.iter
        (fun (q, (qr : Mexec.query_result)) ->
          List.iter (deliver q returned_ns) qr.Mexec.outputs)
        r.Mexec.per_query;
      finish ~start_ns ~returned_ns ~end_ns:returned_ns
        ~outputs:
          (List.map (fun (q, (qr : Mexec.query_result)) -> (q, qr.Mexec.outputs))
             r.Mexec.per_query)
        ~hashes:
          (List.map (fun (q, (qr : Mexec.query_result)) -> (q, qr.Mexec.hash))
             r.Mexec.per_query)
        ~metrics:r.Mexec.metrics
        ~alarms:(List.length (Engine.Telemetry.alarms telemetry))
        ?registry:
          (if Engine.Telemetry.enabled telemetry then
             Some (Engine.Telemetry.registry telemetry)
           else None)
        ()

(* --- result latency -------------------------------------------------- *)

(* (stream, tuple values) -> input positions, newest first. *)
let position_index elements =
  let idx = Hashtbl.create (Array.length elements) in
  Array.iteri
    (fun i e ->
      match e with
      | Element.Data t ->
          let k = (Schema.stream_name (Tuple.schema t), Tuple.values t) in
          Hashtbl.replace idx k
            (i :: Option.value (Hashtbl.find_opt idx k) ~default:[])
      | Element.Punct _ -> ())
    elements;
  idx

(* Per query: each stream with the qualified names its attributes carry in
   a result tuple. *)
let result_layout queries =
  List.map
    (fun (qid, q) ->
      ( qid,
        List.map
          (fun s ->
            ( s,
              List.map
                (fun (a : Schema.attribute) ->
                  Schema.qualify_attr ~origin:s a.Schema.name)
                (Schema.attributes (Cjq.schema_of q s)) ))
          (Cjq.stream_names q) ))
    queries

(* Position of the last-arriving input tuple contributing to [d]'s result:
   for each stream, the newest matching tuple pulled before delivery. *)
let completing index layout d =
  match d.el with
  | Element.Punct _ -> None
  | Element.Data t ->
      List.fold_left
        (fun acc (s, attrs) ->
          match acc with
          | None -> None
          | Some best -> (
              let key = (s, List.map (Tuple.get_named t) attrs) in
              match
                List.find_opt
                  (fun i -> i < d.pulled)
                  (Option.value (Hashtbl.find_opt index key) ~default:[])
              with
              | None -> None
              | Some i -> Some (max best i)))
        (Some (-1))
        (List.assoc d.qid layout)

let latencies_ns index layout r =
  List.filter_map
    (fun d ->
      Option.map (fun i -> d.at - r.pulls.(i)) (completing index layout d))
    r.deliveries

(* --- statistics and output ------------------------------------------- *)

let sorted l = List.sort compare l |> Array.of_list

(* nearest-rank percentile *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median l = percentile (sorted l) 0.5

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %16.6f %s\n" name v unit) metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number v) unit)
          metrics))

let describe w ~seed input =
  let shards, ckpt =
    match w.mode with
    | Sharded { shards; checkpoint_every } -> (shards, string_of_int checkpoint_every)
    | Sequential | Multi -> (0, "none")
  in
  Printf.printf
    "workload %s: queries %s; backend %s; worker shards %d; batch 1 \
     (element-at-a-time); telemetry on + watchdog; policy %s; sample_every %d; \
     checkpoint every %s grid points; rounds %d; fanin %d; lag %d; seed %d; \
     %d elements (%d data, %d punctuations)\n"
    w.name (String.concat "," w.files) (mode_name w.mode) shards
    (Fmt.str "%a" Engine.Purge_policy.pp policy)
    sample_every ckpt w.rounds w.fanin w.lag seed
    (Array.length input.elements)
    (Streams.Trace.data_count input.trace)
    (Streams.Trace.punct_count input.trace)

(* Oracle check of a set of runs: attempted = expected results per run,
   failed = missing plus spurious; a run that raised fails all of its
   expected results. *)
let check_runs expected runs =
  List.fold_left
    (fun (att, fail) run ->
      List.fold_left
        (fun (att, fail) (qid, (exp : Oracle.expected)) ->
          let f =
            match run with
            | Ok outputs -> Oracle.failures exp (List.assoc qid outputs)
            | Error _ -> exp.Oracle.total
          in
          (att + exp.Oracle.total, fail + f))
        (att, fail) expected)
    (0, 0) runs

(* --- end-to-end run (--trace 0) -------------------------------------- *)

let end_to_end w ~seed ~seconds =
  let queries = load_queries w in
  let input = generate w queries ~seed ~rounds:w.rounds in
  describe w ~seed input;
  let n = Array.length input.elements in
  let index = position_index input.elements in
  let layout = result_layout queries in
  let setups = ref [] in
  let set_up () =
    let engine, phases = setup w in
    setups := (float_of_int (setup_ns phases) /. 1e9) :: !setups;
    engine
  in
  (* set-up alone, many times: it takes well under a millisecond, so a
     median over few samples would move with the host's noise *)
  for _ = 1 to 40 do
    ignore (set_up ())
  done;
  let validates = ref [] and throughputs = ref [] in
  let p50s = ref [] and p99s = ref [] and n_lat = ref 0 in
  let runs = ref [] and hashes = ref [] and violations = ref 0 in
  let alarms = ref 0 and rss = ref 0. in
  let t_start = now_ns () in
  let deadline = t_start + (seconds * 1_000_000_000) in
  (* whole iterations only: stop when the next one would overrun *)
  let rec loop () =
    let t_iter = now_ns () in
    Gc.full_major ();
    let engine = set_up () in
    let t0 = now_ns () in
    let v = Streams.Trace.check ~schemes:input.schemes input.trace in
    validates := (float_of_int (now_ns () - t0) /. 1e9) :: !validates;
    violations := !violations + List.length v;
    (match stream w engine input.elements with
    | r ->
        throughputs :=
          (float_of_int n /. (float_of_int (stream_ns r) /. 1e9)) :: !throughputs;
        let lat =
          sorted
            (List.map (fun ns -> float_of_int ns /. 1e3) (latencies_ns index layout r))
        in
        p50s := percentile lat 0.5 :: !p50s;
        p99s := percentile lat 0.99 :: !p99s;
        n_lat := !n_lat + Array.length lat;
        runs := Ok r.outputs :: !runs;
        hashes := r.hashes :: !hashes;
        alarms := !alarms + r.alarms
    | exception e -> runs := Error (Printexc.to_string e) :: !runs);
    (* the peak of one whole pstream_run-like pass, independent of how
       many iterations fit in the run *)
    if !rss = 0. then rss := vm_hwm_mb ();
    let now = now_ns () in
    if now + (now - t_iter) <= deadline then loop ()
  in
  loop ();
  let expected = List.map (fun (qid, q) -> (qid, Oracle.expected q input.trace)) queries in
  let attempted, failed = check_runs expected !runs in
  let stable_hashes =
    match !hashes with [] -> false | h :: rest -> List.for_all (( = ) h) rest
  in
  Printf.printf
    "iterations %d in %.1f s; set-ups %d; latency samples %d; watchdog alarms \
     %d; trace violations %d; expected results per run %d\n"
    (List.length !runs)
    (float_of_int (now_ns () - t_start) /. 1e9)
    (List.length !setups) !n_lat !alarms !violations
    (List.fold_left (fun a (_, (e : Oracle.expected)) -> a + e.Oracle.total) 0 expected);
  List.iter
    (fun (qid, h) -> Printf.printf "output hash %s %s\n" qid h)
    (match !hashes with h :: _ -> h | [] -> []);
  let each name l =
    Printf.printf "per iteration %s: %s\n" name
      (String.concat " " (List.rev_map (Printf.sprintf "%.4g") l))
  in
  each "throughput_eps" !throughputs;
  each "validate_s" !validates;
  each "latency_p50_us" !p50s;
  each "latency_p99_us" !p99s;
  print_result
    ~correct:(failed = 0 && !violations = 0 && stable_hashes)
    ~attempted ~failed
    [
      ("throughput_eps", median !throughputs, "1/s");
      ("latency_p50_us", median !p50s, "us");
      ("latency_p99_us", median !p99s, "us");
      ("validate_s", median !validates, "s");
      ("setup_s", median !setups, "s");
      ("peak_rss_mb", !rss, "MB");
    ]

(* --- traced run (--trace 1) ------------------------------------------ *)

let registry_sum reg suffix ~keep =
  let suffix_ok name =
    let ls = String.length suffix and ln = String.length name in
    ln > ls && String.sub name (ln - ls) ls = suffix && keep name
  in
  match reg with
  | None -> (0, 0)
  | Some reg ->
      let hist =
        List.fold_left
          (fun acc (name, h) ->
            if suffix_ok name then acc + Obs.Histogram.sum h else acc)
          0 (Obs.Registry.histograms reg)
      in
      let ctr =
        List.fold_left
          (fun acc (name, v) -> if suffix_ok name then acc + v else acc)
          0
          (Obs.Counters.to_alist (Obs.Registry.counters reg))
      in
      (hist, ctr)

let hist_ms reg suffix ~keep = float_of_int (fst (registry_sum reg suffix ~keep)) /. 1e6
let counter reg suffix = float_of_int (snd (registry_sum reg suffix ~keep:(fun _ -> true)))
let all _ = true
let ms ns = float_of_int ns /. 1e6
let ratio a b = if b = 0. then 0. else a /. b

let traced w ~seed =
  let sp = Spans.create () in
  let layer = engine_layer w in
  let delivery_layer =
    match w.mode with
    | Sequential -> "sink"
    | Sharded _ -> "on_commit"
    | Multi -> "run_return"
  in
  let queries = load_queries w in
  let out_dir = "perfbench_out" in
  let metrics, (attempted, failed, violations) =
    Spans.within sp ~name:"traced_run" ~layer:"benchmark" (fun root ->
        let input, half =
          Spans.within sp ~parent:root ~name:"generate" ~layer:"Workload.Synth"
            (fun _ ->
              ( generate w queries ~seed ~rounds:w.rounds,
                generate w queries ~seed ~rounds:(w.rounds / 2) ))
        in
        describe w ~seed input;
        let n = Array.length input.elements in
        let set_up ?instrumented parent =
          Spans.within sp ~parent ~name:"setup" ~layer:"setup" (fun id ->
              let engine, phases = setup ?instrumented w in
              List.iter
                (fun p ->
                  ignore
                    (Spans.add sp ~parent:id ~name:p.phase ~layer:p.layer p.t0
                       p.t1))
                phases;
              (engine, phases))
        in
        (* set-up, several times: the per-phase figures are medians *)
        let setups = List.init 5 (fun _ -> set_up root) in
        let setup_phase name =
          median (List.map (fun (_, ps) -> ms (phase_ns ps name)) setups)
        in
        let validate input name =
          Spans.within sp ~parent:root ~name ~layer:"Streams.Trace" (fun _ ->
              let t0 = now_ns () in
              let v = Streams.Trace.check ~schemes:input.schemes input.trace in
              (now_ns () - t0, List.length v))
        in
        let check_full, viol_full = validate input "validate" in
        let check_half, viol_half = validate half "validate_half" in
        (* a streaming pass in its own span, set-up included *)
        let pass ?instrumented name input =
          Spans.within sp ~parent:root ~name ~layer:"benchmark" (fun id ->
              let engine, _ = set_up ?instrumented id in
              Gc.full_major ();
              let r = stream w engine input.elements in
              ignore (Spans.add sp ~parent:id ~name:"stream" ~layer r.start_ns r.end_ns);
              r)
        in
        (* the traced pass: one span per input element, plus the sink or
           commit deliveries, laid under its stream span *)
        let traced_run =
          Spans.within sp ~parent:root ~name:"traced_stream" ~layer:"benchmark"
            (fun id ->
              let engine, _ = set_up id in
              Gc.full_major ();
              let g0 = Gc.quick_stat () in
              let r = stream w engine input.elements in
              let g1 = Gc.quick_stat () in
              let s =
                Spans.add sp ~parent:id ~name:"stream" ~layer r.start_ns r.end_ns
              in
              ignore
                (Spans.add sp ~parent:s ~name:"run_prologue" ~layer r.start_ns
                   r.pulls.(0));
              Array.iteri
                (fun i e ->
                  ignore
                    (Spans.add sp ~parent:s ~id:i
                       ~name:(if Element.is_data e then "data" else "punct")
                       ~layer r.pulls.(i) r.pulls.(i + 1)))
                input.elements;
              let flush =
                Spans.add sp ~parent:s ~name:"flush" ~layer r.pulls.(n)
                  r.returned_ns
              in
              ignore
                (Spans.add sp ~parent:s ~name:"output_hash"
                   ~layer:"Engine.Executor.output_hash" r.returned_ns r.end_ns);
              let index = position_index input.elements in
              let layout = result_layout queries in
              List.iter
                (fun d ->
                  let parent =
                    if d.pulled >= 1 && d.at <= r.pulls.(d.pulled) then d.pulled - 1
                    else flush
                  in
                  ignore
                    (Spans.add sp ~parent ?completes:(completing index layout d)
                       ~name:"deliver" ~layer:delivery_layer d.at d.at))
                r.deliveries;
              (r, g0, g1))
        in
        let r, g0, g1 = traced_run in
        let untraced = pass "untraced_stream" input in
        let half_run = pass "half_stream" half in
        let null_run = pass ~instrumented:false "null_stream" input in
        (* sharded only: one routing pass and the sequential baseline *)
        let route =
          match w.mode with
          | Sharded { shards; _ } ->
              Spans.within sp ~parent:root ~name:"route_pass"
                ~layer:"Engine.Shard_router" (fun _ ->
                  let router =
                    Engine.Shard_router.create ~shards (snd (List.hd queries))
                  in
                  let t0 = now_ns () in
                  let bcast = ref 0 in
                  Array.iter
                    (fun e ->
                      match Engine.Shard_router.route_element router e with
                      | Engine.Shard_router.Broadcast -> incr bcast
                      | Engine.Shard_router.Local _ -> ())
                    input.elements;
                  Some (now_ns () - t0, !bcast))
          | Sequential | Multi -> None
        in
        let baseline =
          match w.mode with
          | Sharded _ ->
              Some
                (Spans.within sp ~parent:root ~name:"sequential_baseline"
                   ~layer:"benchmark" (fun id ->
                     let query = snd (List.hd queries) in
                     let engine =
                       sequential_engine ~instrumented:true query
                         (Query.Plan.mjoin (Cjq.stream_names query))
                     in
                     Gc.full_major ();
                     let b = stream { w with mode = Sequential } engine input.elements in
                     ignore
                       (Spans.add sp ~parent:id ~name:"stream" ~layer:"Engine.Executor"
                          b.start_ns b.end_ns);
                     b))
          | Sequential | Multi -> None
        in
        (* every full-size pass against the full oracle, the half-size
           pass against its own *)
        let checked =
          Spans.within sp ~parent:root ~name:"oracle" ~layer:"Relational" (fun _ ->
            let exp_of input =
              List.map (fun (qid, q) -> (qid, Oracle.expected q input.trace)) queries
            in
            let full_runs =
              List.map
                (fun (x : run) -> Ok x.outputs)
                ([ r; untraced; null_run ] @ Option.to_list baseline)
            in
            let a1, f1 = check_runs (exp_of input) full_runs in
            let a2, f2 = check_runs (exp_of half) [ Ok half_run.outputs ] in
            (a1 + a2, f1 + f2, viol_full + viol_half))
        in
        (* --- per-layer figures --- *)
        let gaps = Array.init n (fun i -> r.pulls.(i + 1) - r.pulls.(i)) in
        let on_grid i = (i + 1) mod sample_every = 0 in
        let mean_gap is_data =
          let sum = ref 0 and cnt = ref 0 in
          Array.iteri
            (fun i e ->
              if Element.is_data e = is_data && not (on_grid i) then begin
                sum := !sum + gaps.(i);
                incr cnt
              end)
            input.elements;
          if !cnt = 0 then 0. else float_of_int !sum /. float_of_int !cnt
        in
        let data_gap = mean_gap true and punct_gap = mean_gap false in
        (* grid work: a grid element's gap beyond the gap of the nearest
           earlier element of the same kind off the grid (per-element cost
           drifts over a run, so a run-wide mean would misattribute it) *)
        let grid_extra_ns =
          let last = [| 0; 0 |] and acc = ref 0 in
          Array.iteri
            (fun i e ->
              let k = if Element.is_data e then 0 else 1 in
              if on_grid i then acc := !acc + gaps.(i) - last.(k)
              else last.(k) <- gaps.(i))
            input.elements;
          float_of_int !acc
        in
        let reg = r.registry in
        let shared name = String.length name > 7 && String.sub name 0 7 = "shared:" in
        let push_ms = hist_ms reg ".push_ns" ~keep:all in
        let purge_ms = hist_ms reg ".purge_round_ns" ~keep:all in
        let purge_rounds = counter reg ".purge_rounds" in
        let samples = Engine.Metrics.samples r.metrics in
        let punct_growth =
          match (samples, Engine.Metrics.final r.metrics) with
          | first :: _, Some last when last.Engine.Metrics.tick > first.Engine.Metrics.tick ->
              float_of_int (last.punct_state - first.punct_state)
              /. float_of_int (last.tick - first.tick)
              *. 1000.
          | _ -> 0.
        in
        let sharded = match w.mode with Sharded _ -> true | _ -> false in
        let ckpt_ms = List.map (fun (_, d) -> ms d) r.checkpoint_events in
        let commit_gaps =
          let rec go = function
            | (a, _) :: ((b, _) :: _ as rest) -> ms (b - a) :: go rest
            | _ -> []
          in
          go r.commits
        in
        let streamed x = float_of_int (stream_ns x) in
        let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
        ( [
          ("setup.parse_ms", setup_phase "parse", "ms");
          ("setup.check_ms", setup_phase "check", "ms");
          ("setup.plan_ms", setup_phase "plan", "ms");
          ("setup.compile_ms", setup_phase "compile", "ms");
          ( "streams.check_doubling_ratio",
            ratio (float_of_int check_full) (float_of_int check_half),
            "ratio" );
          ("driver.data_el_us", data_gap /. 1e3, "us");
          ("driver.punct_el_us", punct_gap /. 1e3, "us");
          ("driver.grid_ms", grid_extra_ns /. 1e6, "ms");
          ("driver.flush_ms", ms (r.returned_ns - r.pulls.(n)), "ms");
          ("driver.doubling_ratio", ratio (streamed r) (streamed half_run), "ratio");
          ("mjoin.push_ms", push_ms, "ms");
          ("mjoin.purge_ms", purge_ms, "ms");
          ("mjoin.purge_share", ratio purge_ms push_ms, "ratio");
          ("mjoin.purge_rounds", purge_rounds, "count");
          ( "mjoin.purged_per_round",
            ratio (counter reg ".purged_tuples") purge_rounds,
            "tuples" );
          ( "join_state.peak_tuples",
            float_of_int (Engine.Metrics.peak_data_state r.metrics),
            "count" );
          ( "join_state.peak_bytes",
            float_of_int (Engine.Metrics.peak_state_bytes r.metrics),
            "bytes" );
          ( "punct_store.peak",
            float_of_int (Engine.Metrics.peak_punct_state r.metrics),
            "count" );
          ("punct_store.growth_per_kel", punct_growth, "puncts/kel");
          ( "telemetry.overhead_pct",
            100. *. (ratio (streamed untraced) (streamed null_run) -. 1.),
            "%" );
          ("obs.watchdog_alarms", float_of_int r.alarms, "count");
          ("gc.minor_words_per_el", minor_words /. float_of_int n, "words");
          ( "gc.major_collections",
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections),
            "count" );
          ( "shard_router.route_ns_per_el",
            (match route with
            | Some (ns, _) -> float_of_int ns /. float_of_int n
            | None -> 0.),
            "ns" );
          ( "shard_router.broadcast_share",
            (match route with
            | Some (_, b) -> float_of_int b /. float_of_int n
            | None -> 0.),
            "ratio" );
          ( "parallel.barrier_ms",
            (if sharded then
               (grid_extra_ns /. 1e6) -. List.fold_left ( +. ) 0. ckpt_ms
             else 0.),
            "ms" );
          ("parallel.commit_gap_ms_p50", median commit_gaps, "ms");
          ( "parallel.history_len_max",
            float_of_int (List.fold_left (fun a (_, h) -> max a h) 0 r.commits),
            "count" );
          ( "parallel.vs_sequential",
            (match baseline with
            | Some b -> ratio (streamed b) (streamed r)
            | None -> 0.),
            "ratio" );
          ("checkpoint.cuts", float_of_int (List.length r.checkpoint_events), "count");
          ( "checkpoint.bytes_p50",
            median (List.map (fun (b, _) -> float_of_int b) r.checkpoint_events),
            "bytes" );
          ("checkpoint.ms_p50", median ckpt_ms, "ms");
          ( "multi.shared_push_ms",
            (if w.mode = Multi then hist_ms reg ".push_ns" ~keep:shared else 0.),
            "ms" );
          ( "multi.residual_push_ms",
            (if w.mode = Multi then
               hist_ms reg ".push_ns" ~keep:(fun nm -> not (shared nm))
             else 0.),
            "ms" );
          ( "trace.overhead_pct",
            100. *. (ratio (streamed r) (streamed untraced) -. 1.),
            "%" );
        ],
          checked ))
  in
  let coverage = 100. *. Spans.coverage sp in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.spans.jsonl" w.name seed) in
  Spans.write sp path;
  Printf.printf "spans written to %s (%d spans)\n" path (List.length sp.Spans.spans);
  List.iter
    (fun (l, ns) -> Printf.printf "self time %-34s %10.3f ms\n" l (ms ns))
    (Spans.by_layer sp);
  print_result
    ~correct:(attempted > 0 && failed = 0 && violations = 0)
    ~attempted ~failed
    (metrics @ [ ("trace.coverage", coverage, "%") ])

(* --- parity mode ----------------------------------------------------- *)

let hashes w ~seed ~rounds ~save_trace =
  let queries = load_queries w in
  let input = generate w queries ~seed ~rounds in
  Option.iter (fun path -> Streams.Trace_io.save ~path input.trace) save_trace;
  let engine, _ = setup w in
  let r = stream w engine input.elements in
  List.iter (fun (qid, h) -> Printf.printf "output hash %s %s\n" qid h) r.hashes

(* --- command line ---------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 in
  let trace = ref 0 and parity = ref false and rounds = ref 0 in
  let save_trace = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--hashes", Arg.Set parity, " print one run's output hashes");
      ("--rounds", Arg.Set_int rounds, "N input rounds (with --hashes)");
      ( "--save-trace",
        Arg.String (fun s -> save_trace := Some s),
        "FILE save the input trace (with --hashes)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  | Some w ->
      if List.exists (fun f -> not (Sys.file_exists f)) w.files then begin
        Printf.eprintf "query files of %s not found: run from the repository root\n"
          w.name;
        exit 2
      end;
      if !parity then
        hashes w ~seed:!seed
          ~rounds:(if !rounds > 0 then !rounds else w.rounds)
          ~save_trace:!save_trace
      else if !trace = 1 then traced w ~seed:!seed
      else end_to_end w ~seed:!seed ~seconds:(max 1 !seconds)
