(** The sampling-grid plane shared by every executor.

    A run shows that a safe query keeps bounded state on its sampling
    grid: every [sample_every] input elements (and once more at the end)
    the plane records the metrics series, runs the contract checks, sets
    the per-operator state gauges and the driver-domain GC deltas, emits
    the [Sample] event, feeds the watchdog (converting its alarms to
    [Alarm] events) and publishes an exporter snapshot. {!Executor},
    {!Multi_executor} and {!Parallel_executor} differ only in the {!view}
    they hand it. *)

(** Per-operator state: stored tuples, stored punctuations,
    secondary-index entries and approximate resident bytes. *)
type breakdown = {
  op_name : string;
  data : int;
  puncts : int;
  index : int;
  bytes : int;
}

(** One logical operator: its copies (one per shard; a single copy
    in-process) and the inputs its static purge-reachability check
    rejects — the diagnosis attached to its watchdog alarms. *)
type row = { copies : Operator.t list; unreachable : string list }

(** [breakdown row] — the row's state summed across its copies. *)
val breakdown : row -> breakdown

(** What an executor shows the plane. *)
type view = {
  rows : unit -> row list;  (** read at every grid point *)
  emitted : unit -> int;  (** data results emitted so far *)
  emit : (Obs.Event.t -> unit) option;
      (** [None] when uninstrumented: no events, gauges or GC counters *)
  registry : Obs.Registry.t;  (** receives the gauges and [gc_*] counters *)
  exported : unit -> Obs.Registry.t;  (** what the exporter renders *)
  watchdog : Obs.Watchdog.t option;
  contract : Contract.t option;  (** tracks punctuation stalls *)
  budgets : unit -> (Contract.t * Telemetry.t * (unit -> int)) list;
      (** contracts enforcing a state budget, each with the handle its
          [Load_shed] events go to and its current state bytes *)
  extra : unit -> (string * int) list;
      (** further named size series for the watchdog at non-final grid
          points (the sharded replay-history excess) *)
}

type t

(** [create ~sample_every ?exporter ~label view] — a plane for one run;
    emits [Run_start]. *)
val create :
  sample_every:int -> ?exporter:Obs.Exporter.t -> label:string -> view -> t

(** [in_process telemetry ?contract ?exporter ~sample_every ~label ~rows
    ~emitted ()] — the plane of an in-process run whose operators share
    one telemetry handle: resets its clock, and publishes to [exporter]
    only when the handle is enabled (the exporter renders its
    registry). *)
val in_process :
  Telemetry.t ->
  ?contract:Contract.t ->
  ?exporter:Obs.Exporter.t ->
  sample_every:int ->
  label:string ->
  rows:row list ->
  emitted:(unit -> int) ->
  unit ->
  t

(** [point ?cut t ~tick] — one grid point. [cut] runs after the operator
    watchdog feed and before the [extra] series and the exporter snapshot
    (the sharded driver's checkpoint). *)
val point : ?cut:(unit -> unit) -> t -> tick:int -> unit

(** [finish t ~tick] — the closing point (its series sample replaces a
    same-tick grid sample) and [Run_end]. *)
val finish : t -> tick:int -> unit

val metrics : t -> Metrics.t

(** [drive t ~cut ~feed elements] — the in-process run loop: buffers up to
    [cut] elements, always cutting at the sampling grid, hands each run to
    [feed ~base run] ([base] = elements consumed before it) and takes a
    grid point after every run that ends on the grid. Returns the number
    of elements consumed. *)
val drive :
  t ->
  cut:int ->
  feed:(base:int -> Streams.Element.t array -> unit) ->
  Streams.Element.t Seq.t ->
  int

(** [report ~meta ~rows ~registry ~metrics ~alarms] — a run report with
    one operator entry per row (stats and state summed across the row's
    copies) and the metrics series. *)
val report :
  meta:(string * Obs.Json.t) list ->
  rows:row list ->
  registry:Obs.Registry.t ->
  metrics:Metrics.t ->
  alarms:Obs.Watchdog.alarm list ->
  Obs.Report.t
