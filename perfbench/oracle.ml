(* The relational oracle: the multiset join of a trace's data tuples,
   computed with [Relational.Relation], rendered the way
   [Engine.Executor.render_data] renders engine results, so an engine run is
   checked tuple for tuple rather than by count.

   Streams are joined one at a time in the query's declaration order. The
   partial result keeps the qualified attribute names ("S1.A") that the
   engine's operators give their outputs, so the remaining atoms are
   rewritten against it. Each step is hash-partitioned on the atoms'
   attribute values before [Relation.join] runs on a partition: tuples with
   different values cannot satisfy an equality atom, so the partitioning
   changes the cost, not the answer. *)

module Element = Streams.Element
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Predicate = Relational.Predicate
module Relation = Relational.Relation

type expected = {
  counts : (string, int) Hashtbl.t;  (** rendering -> multiplicity *)
  total : int;
}

let data_of trace stream =
  List.filter_map
    (function
      | Element.Data t when Schema.stream_name (Tuple.schema t) = stream ->
          Some t
      | _ -> None)
    trace

let partition keys tuples =
  let groups = Hashtbl.create 1024 in
  List.iter
    (fun t ->
      let k = List.map (Tuple.get_named t) keys in
      Hashtbl.replace groups k
        (t :: Option.value (Hashtbl.find_opt groups k) ~default:[]))
    tuples;
  groups

(* [join_all query trace] — every full-query result tuple, as a relation
   whose attributes carry the engine's qualified names. *)
let join_all query trace =
  let preds = Query.Cjq.predicates query in
  let step (joined_streams, acc) stream =
    let schema = Query.Cjq.schema_of query stream in
    let next = Relation.make schema (data_of trace stream) in
    match acc with
    | None ->
        let name = "oracle_" ^ stream in
        let qualified = Schema.concat_all ~stream:name [ schema ] in
        let retag t = Tuple.make qualified (Tuple.values t) in
        ( [ stream ],
          Some (Relation.make qualified (List.map retag (Relation.tuples next)))
        )
    | Some acc ->
        let acc_name = Schema.stream_name (Relation.schema acc) in
        (* atoms linking [stream] to already-joined streams, restated on the
           partial result's qualified attribute *)
        let links =
          List.filter_map
            (fun atom ->
              if not (Predicate.involves atom stream) then None
              else
                let other, other_attr = Predicate.other_side atom stream in
                if List.mem other joined_streams then
                  Some
                    ( Schema.qualify_attr ~origin:other other_attr,
                      Predicate.attr_on atom stream )
                else None)
            preds
        in
        let rewritten =
          List.map (fun (qa, a) -> Predicate.atom acc_name qa stream a) links
        in
        let left = partition (List.map fst links) (Relation.tuples acc) in
        let right = partition (List.map snd links) (Relation.tuples next) in
        let name = acc_name ^ "_" ^ stream in
        let out_schema =
          Schema.concat ~stream:name (Relation.schema acc) schema
        in
        let tuples =
          Hashtbl.fold
            (fun k ls out ->
              match Hashtbl.find_opt right k with
              | None -> out
              | Some rs ->
                  Relation.tuples
                    (Relation.join ~name rewritten
                       (Relation.make (Relation.schema acc) ls)
                       (Relation.make schema rs))
                  @ out)
            left []
        in
        (stream :: joined_streams, Some (Relation.make out_schema tuples))
  in
  match List.fold_left step ([], None) (Query.Cjq.stream_names query) with
  | _, Some r -> Relation.tuples r
  | _, None -> []

let expected query trace =
  let counts = Hashtbl.create 4096 in
  let total = ref 0 in
  List.iter
    (fun t ->
      match Engine.Executor.render_data (Element.Data t) with
      | Some r ->
          incr total;
          Hashtbl.replace counts r
            (1 + Option.value (Hashtbl.find_opt counts r) ~default:0)
      | None -> ())
    (join_all query trace);
  { counts; total = !total }

(* [failures exp outputs] — missing plus spurious results of one run. *)
let failures exp outputs =
  let seen = Hashtbl.create (max 16 exp.total) in
  List.iter
    (fun e ->
      match Engine.Executor.render_data e with
      | Some r ->
          Hashtbl.replace seen r
            (1 + Option.value (Hashtbl.find_opt seen r) ~default:0)
      | None -> ())
    outputs;
  let diff = ref 0 in
  Hashtbl.iter
    (fun r n ->
      let got = Option.value (Hashtbl.find_opt seen r) ~default:0 in
      diff := !diff + abs (n - got))
    exp.counts;
  Hashtbl.iter
    (fun r got ->
      if not (Hashtbl.mem exp.counts r) then diff := !diff + got)
    seen;
  !diff
