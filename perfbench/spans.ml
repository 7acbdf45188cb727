(* In-memory span recorder for the traced run. Spans are recorded by the
   benchmark around its own calls into each layer, kept in memory, and
   written as JSON lines once the run is over.

   Ids: explicit spans get negative ids; the span of input element [seq]
   has id [seq] itself, so a delivery can name the element that completed
   its result. *)

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int option;
  start_ns : int;
  end_ns : int;
  completes : int option;  (** for deliveries: the completing element *)
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = -1 }

let fresh t =
  let id = t.next in
  t.next <- id - 1;
  id

let add t ?parent ?completes ?id ~name ~layer start_ns end_ns =
  let id = match id with Some id -> id | None -> fresh t in
  t.spans <-
    { id; name; layer; parent; start_ns; end_ns; completes } :: t.spans;
  id

(* [within t ?parent ~name ~layer f] — run [f id] inside a fresh span,
   where [id] is the span's id for children to cite. *)
let within t ?parent ~name ~layer f =
  let id = fresh t in
  let t0 = Harness_clock.now_ns () in
  let x = f id in
  let t1 = Harness_clock.now_ns () in
  t.spans <-
    { id; name; layer; parent; start_ns = t0; end_ns = t1; completes = None }
    :: t.spans;
  x

let duration s = s.end_ns - s.start_ns

(* Self time: a span's duration minus what its children cover. Children of
   one parent never overlap (every span is recorded on the driver, in
   program order), so their durations add up. *)
let self_times t =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace child_sum p
            (duration s + Option.value (Hashtbl.find_opt child_sum p) ~default:0)
      | None -> ())
    t.spans;
  List.map
    (fun s ->
      (s, duration s - Option.value (Hashtbl.find_opt child_sum s.id) ~default:0))
    t.spans

(* [coverage t] — share of the root span's wall time covered by the self
   times of the spans under it, i.e. attributed to some layer. The root is
   the one span without a parent. *)
let coverage t =
  let root_span, root_self =
    List.find (fun (s, _) -> s.parent = None) (self_times t)
  in
  let d = duration root_span in
  if d <= 0 then 0. else float_of_int (d - root_self) /. float_of_int d

(* Self time summed per layer, largest first. *)
let by_layer t =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace acc s.layer
        (self + Option.value (Hashtbl.find_opt acc s.layer) ~default:0))
    (self_times t);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let write t path =
  let oc = open_out path in
  let opt_int = function Some i -> string_of_int i | None -> "null" in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"layer\":%S,\"parent\":%s,\"start_ns\":%d,\"end_ns\":%d,\"completes\":%s}\n"
        s.id s.name s.layer (opt_int s.parent) s.start_ns s.end_ns
        (opt_int s.completes))
    (List.rev t.spans);
  close_out oc
