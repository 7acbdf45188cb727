type breakdown = {
  op_name : string;
  data : int;
  puncts : int;
  index : int;
  bytes : int;
}

type row = { copies : Operator.t list; unreachable : string list }

let breakdown r =
  let sum f = List.fold_left (fun acc op -> acc + f op) 0 r.copies in
  {
    op_name = (List.hd r.copies).Operator.name;
    data = sum (fun (op : Operator.t) -> op.data_state_size ());
    puncts = sum (fun (op : Operator.t) -> op.punct_state_size ());
    index = sum (fun (op : Operator.t) -> op.index_state_size ());
    bytes = sum (fun (op : Operator.t) -> op.state_bytes ());
  }

type view = {
  rows : unit -> row list;
  emitted : unit -> int;
  emit : (Obs.Event.t -> unit) option;
  registry : Obs.Registry.t;
  exported : unit -> Obs.Registry.t;
  watchdog : Obs.Watchdog.t option;
  contract : Contract.t option;
  budgets : unit -> (Contract.t * Telemetry.t * (unit -> int)) list;
  extra : unit -> (string * int) list;
}

type t = {
  view : view;
  sample_every : int;
  exporter : Obs.Exporter.t option;
  metrics : Metrics.t;
  mutable prev_gc : Gc.stat;
  mutable prev_snapshot : Obs.Snapshot.t option;
}

let create ~sample_every ?exporter ~label view =
  Option.iter (fun emit -> emit (Obs.Event.Run_start { tick = 0; label }))
    view.emit;
  {
    view;
    sample_every;
    exporter;
    metrics = Metrics.create ();
    prev_gc = Gc.quick_stat ();
    prev_snapshot = None;
  }

let in_process telemetry ?contract ?exporter ~sample_every ~label ~rows
    ~emitted () =
  let budgets =
    match contract with
    | None -> []
    | Some ct ->
        let bytes_now () =
          List.fold_left (fun acc r -> acc + (breakdown r).bytes) 0 rows
        in
        [ (ct, telemetry, bytes_now) ]
  in
  let enabled = Telemetry.enabled telemetry in
  Telemetry.set_clock telemetry 0;
  create ~sample_every
    ?exporter:(if enabled then exporter else None)
    ~label
    {
      rows = (fun () -> rows);
      emitted;
      emit = (if enabled then Some (Telemetry.emit telemetry) else None);
      registry = Telemetry.registry telemetry;
      exported = (fun () -> Telemetry.registry telemetry);
      watchdog = Telemetry.watchdog telemetry;
      contract;
      budgets = (fun () -> budgets);
      extra = (fun () -> []);
    }

let metrics t = t.metrics

(* Contract checks run whether or not the run is instrumented: stall
   detection and budget enforcement are behaviour, not instrumentation.
   Returns the tuples shed. *)
let contract_checks t ~tick =
  let v = t.view in
  Option.iter
    (fun ct ->
      ignore
        (Contract.check_stalls ct
           ~emit:(Option.value v.emit ~default:ignore)
           ?watchdog:v.watchdog ~tick ()))
    v.contract;
  List.fold_left
    (fun acc (ct, telemetry, bytes_now) ->
      acc + Contract.enforce_budget ct ~telemetry ~tick ~bytes_now ())
    0 (v.budgets ())

(* Driver-domain GC only: in OCaml 5 [Gc.quick_stat] reads the calling
   domain's counters, so a sharded run tracks its orchestration side's
   churn under the same names as an in-process run. *)
let gc_deltas t reg =
  let s = Gc.quick_stat () in
  let p = t.prev_gc in
  t.prev_gc <- s;
  let dw f = max 0 (int_of_float (f s -. f p)) in
  let di f = max 0 (f s - f p) in
  Obs.Registry.incr ~by:(dw (fun (g : Gc.stat) -> g.minor_words)) reg
    "gc_minor_words";
  Obs.Registry.incr ~by:(dw (fun (g : Gc.stat) -> g.promoted_words)) reg
    "gc_promoted_words";
  Obs.Registry.incr ~by:(dw (fun (g : Gc.stat) -> g.major_words)) reg
    "gc_major_words";
  Obs.Registry.incr ~by:(di (fun (g : Gc.stat) -> g.minor_collections)) reg
    "gc_minor_collections";
  Obs.Registry.incr ~by:(di (fun (g : Gc.stat) -> g.major_collections)) reg
    "gc_major_collections";
  Obs.Registry.incr ~by:(di (fun (g : Gc.stat) -> g.compactions)) reg
    "gc_compactions";
  Obs.Registry.set_gauge ~agg:Obs.Counters.Sum reg "gc_heap_words"
    s.heap_words

let watch t w ~op ~tick ~size ~unreachable =
  match Obs.Watchdog.observe w ~op ~tick ~size ~unreachable with
  | None -> ()
  | Some (a : Obs.Watchdog.alarm) ->
      Option.iter
        (fun emit ->
          emit
            (Obs.Event.Alarm
               {
                 tick = a.tick;
                 op = a.op;
                 slope = a.slope;
                 size = a.size;
                 unreachable = a.unreachable;
               }))
        t.view.emit

let sum bs f = List.fold_left (fun acc b -> acc + f b) 0 bs

(* The series sample precedes the contract checks; everything after them
   sees the state a budget may have shed. *)
let sample ~final ?(cut = ignore) t ~tick =
  let v = t.view in
  let rows = v.rows () in
  let bs = List.map breakdown rows in
  (if final then Metrics.flush else Metrics.force)
    t.metrics ~tick
    ~data_state:(sum bs (fun b -> b.data))
    ~punct_state:(sum bs (fun b -> b.puncts))
    ~index_state:(sum bs (fun b -> b.index))
    ~state_bytes:(sum bs (fun b -> b.bytes))
    ~emitted:(v.emitted ()) ();
  let bs = if contract_checks t ~tick > 0 then List.map breakdown rows else bs in
  (match v.emit with
  | None -> ()
  | Some emit ->
      List.iter
        (fun b ->
          let set suffix n =
            Obs.Registry.set_gauge ~agg:Obs.Counters.Sum v.registry
              (b.op_name ^ "." ^ suffix) n
          in
          set "data_state" b.data;
          set "punct_state" b.puncts;
          set "index_state" b.index;
          set "state_bytes" b.bytes)
        bs;
      gc_deltas t v.registry;
      emit
        (Obs.Event.Sample
           {
             tick;
             data_state = sum bs (fun b -> b.data);
             punct_state = sum bs (fun b -> b.puncts);
             index_state = sum bs (fun b -> b.index);
             state_bytes = sum bs (fun b -> b.bytes);
             emitted = v.emitted ();
           }));
  Option.iter
    (fun w ->
      List.iter2
        (fun r b ->
          watch t w ~op:b.op_name ~tick ~size:b.data
            ~unreachable:r.unreachable)
        rows bs)
    v.watchdog;
  if not final then begin
    cut ();
    Option.iter
      (fun w ->
        List.iter
          (fun (op, size) -> watch t w ~op ~tick ~size ~unreachable:[])
          (v.extra ()))
      v.watchdog
  end;
  match t.exporter with
  | None -> ()
  | Some ex ->
      let snap =
        Obs.Snapshot.capture ?prev:t.prev_snapshot ~tick (v.exported ())
      in
      t.prev_snapshot <- Some snap;
      Obs.Exporter.publish ex (Obs.Openmetrics.render snap)

let point ?cut t ~tick = sample ~final:false ?cut t ~tick

let finish t ~tick =
  sample ~final:true t ~tick;
  Option.iter
    (fun emit ->
      emit (Obs.Event.Run_end { tick; emitted = t.view.emitted () }))
    t.view.emit

let drive t ~cut ~feed elements =
  let consumed = ref 0 in
  let buf = ref [] in
  let nbuf = ref 0 in
  let flush () =
    if !nbuf > 0 then begin
      let run = Array.of_list (List.rev !buf) in
      buf := [];
      nbuf := 0;
      let base = !consumed in
      consumed := base + Array.length run;
      feed ~base run;
      if !consumed mod t.sample_every = 0 then point t ~tick:!consumed
    end
  in
  Seq.iter
    (fun e ->
      buf := e :: !buf;
      incr nbuf;
      if !nbuf >= cut || (!consumed + !nbuf) mod t.sample_every = 0 then
        flush ())
    elements;
  flush ();
  !consumed

let series_json metrics =
  Obs.Json.List
    (List.map
       (fun (s : Metrics.sample) ->
         Obs.Json.Obj
           [
             ("tick", Obs.Json.Int s.tick);
             ("data_state", Obs.Json.Int s.data_state);
             ("punct_state", Obs.Json.Int s.punct_state);
             ("index_state", Obs.Json.Int s.index_state);
             ("state_bytes", Obs.Json.Int s.state_bytes);
             ("emitted", Obs.Json.Int s.emitted);
           ])
       (Metrics.samples metrics))

let report ~meta ~rows ~registry ~metrics ~alarms =
  let operator r =
    let op0 = List.hd r.copies in
    let stats =
      List.map
        (fun (op : Operator.t) -> Operator.stats_to_alist (op.stats ()))
        r.copies
      |> List.fold_left
           (fun acc st ->
             if acc = [] then st
             else List.map2 (fun (k, n) (_, n') -> (k, n + n')) acc st)
           []
    in
    let b = breakdown r in
    {
      Obs.Report.name = op0.Operator.name;
      inputs = op0.Operator.input_names;
      unreachable_inputs = r.unreachable;
      stats;
      state =
        [
          ("data", b.data);
          ("puncts", b.puncts);
          ("index", b.index);
          ("bytes", b.bytes);
        ];
    }
  in
  {
    Obs.Report.meta;
    operators = List.map operator rows;
    registry;
    series = series_json metrics;
    alarms;
  }
