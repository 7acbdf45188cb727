(* Fault-tolerance tests: the deterministic fault injector, the
   punctuation-contract monitor's responses (detection, quarantine
   losslessness, fail-fast), and shard supervision (kill → replay
   recovery → the fault-free answer; restart budgets; contract poison). *)

module Element = Streams.Element
module Fault_injector = Streams.Fault_injector
module Cjq = Query.Cjq
module Plan = Query.Plan
module Executor = Engine.Executor
module Parallel_executor = Engine.Parallel_executor
module Contract = Engine.Contract
module Telemetry = Engine.Telemetry
module Metrics = Engine.Metrics
module Purge_policy = Engine.Purge_policy
module Operator = Engine.Operator
module Synth = Workload.Synth
open Fixtures

let plan3 = Plan.mjoin [ "S1"; "S2"; "S3" ]

let round_trace ?(rounds = 60) ?(punct_lag = 5) q =
  Synth.round_trace q { Synth.default_trace_config with rounds; punct_lag }

let render trace = List.map (fun e -> Fmt.str "%a" Element.pp e) trace

let chaos =
  {
    Fault_injector.default with
    seed = 7;
    drop_punct = 0.2;
    dup_punct = 0.15;
    delay_punct = 0.2;
    delay_ticks = 4;
    late_data = 0.3;
  }

(* ------------------------------------------------------------------ *)
(* Injector *)

let test_injector_identity () =
  let trace = round_trace (fig5_query ()) in
  let faulted, injections = Fault_injector.apply Fault_injector.default trace in
  check_int "no injections" 0 (List.length injections);
  Alcotest.(check (list string)) "default config is the identity"
    (render trace) (render faulted)

let test_injector_determinism () =
  let trace = round_trace (fig5_query ()) in
  let f1, i1 = Fault_injector.apply chaos trace in
  let f2, i2 = Fault_injector.apply chaos trace in
  check_bool "some faults injected" true (List.length i1 > 0);
  Alcotest.(check (list string)) "same seed, same faulted trace" (render f1)
    (render f2);
  Alcotest.(check (list string)) "same injection log"
    (List.map (Fmt.str "%a" Fault_injector.pp_injection) i1)
    (List.map (Fmt.str "%a" Fault_injector.pp_injection) i2);
  let f3, _ = Fault_injector.apply { chaos with seed = 8 } trace in
  check_bool "different seed, different schedule" true
    (render f1 <> render f3)

let test_injector_drop_only_removes_puncts () =
  let trace = round_trace (fig5_query ()) in
  let cfg = { Fault_injector.default with seed = 3; drop_punct = 0.3 } in
  let faulted, injections = Fault_injector.apply cfg trace in
  let count p l = List.length (List.filter p l) in
  check_int "data untouched"
    (count Element.is_data trace)
    (count Element.is_data faulted);
  check_int "every drop is a punctuation gone"
    (count Element.is_punct trace - List.length injections)
    (count Element.is_punct faulted);
  check_bool "log says drop_punct" true
    (List.for_all
       (fun (i : Fault_injector.injection) -> i.kind = "drop_punct")
       injections)

(* ------------------------------------------------------------------ *)
(* Contract responses (sequential engine) *)

let seq_hash ?policy q trace =
  let c = Executor.compile ~config:(Executor.Config.make ?policy ()) q plan3 in
  let r = Executor.run ~sample_every:50 c (List.to_seq trace) in
  Executor.output_hash r.Executor.outputs

let run_with_contract ?policy ?(action = Contract.Count) ?grace ?budget q trace
    =
  let watchdog = Obs.Watchdog.create () in
  let telemetry = Telemetry.create ~watchdog () in
  let ct =
    Contract.create
      {
        Contract.default_config with
        Contract.action;
        grace;
        state_budget_bytes = budget;
      }
  in
  let c = Executor.compile ~config:(Executor.Config.make ?policy ~telemetry ~contract:ct ()) q plan3 in
  let r = Executor.run ~sample_every:50 c (List.to_seq trace) in
  (ct, telemetry, c, r)

let test_dropped_puncts_never_change_the_answer () =
  (* Theorems 1-5 bound *state* given punctuations; the answer never
     depended on them. Dropping punctuations must leave the output
     multiset intact (the engine just purges less). *)
  let q = fig5_query () in
  let trace = round_trace q in
  let faulted, _ =
    Fault_injector.apply
      { Fault_injector.default with seed = 5; drop_punct = 0.4 }
      trace
  in
  check_string "output invariant under punctuation loss" (seq_hash q trace)
    (seq_hash q faulted)

let late_faulted q =
  let trace = round_trace q in
  let faulted, injections =
    Fault_injector.apply
      { Fault_injector.default with seed = 11; late_data = 0.5 }
      trace
  in
  let late =
    List.filter
      (fun (i : Fault_injector.injection) -> i.kind = "late_data")
      injections
  in
  check_bool "injector produced late tuples" true (List.length late > 0);
  (trace, faulted, List.length late)

let test_late_data_detected_without_contract () =
  (* Detection is unconditional: no contract armed, yet the operator
     counts every contradicting tuple the store flags. *)
  let q = fig5_query () in
  let _, faulted, n_late = late_faulted q in
  let c = Executor.compile q plan3 in
  let _ = Executor.run ~sample_every:50 c (List.to_seq faulted) in
  let late_seen =
    List.fold_left
      (fun acc (op : Operator.t) ->
        acc + List.assoc "late_tuples" (Operator.stats_to_alist (op.Operator.stats ())))
      0 (Executor.operators ~c)
  in
  check_int "operator stats count the contradictions" n_late late_seen

let test_quarantine_is_lossless_and_output_clean () =
  let q = fig5_query () in
  let trace, faulted, n_late = late_faulted q in
  let clean_hash = seq_hash q trace in
  let ct, _, _, r =
    run_with_contract ~action:Contract.Quarantine q faulted
  in
  check_int "every late tuple detected" n_late (Contract.late_count ct);
  check_int "every late tuple quarantined, none lost" n_late
    (Contract.quarantined_count ct + Contract.quarantine_overflow ct);
  check_int "side buffer holds them" n_late
    (List.length (Contract.quarantined ct));
  check_string "quarantine keeps the output equal to the fault-free run"
    clean_hash
    (Executor.output_hash r.Executor.outputs)

let test_fail_action_raises () =
  let q = fig5_query () in
  let _, faulted, _ = late_faulted q in
  match run_with_contract ~action:Contract.Fail q faulted with
  | _ -> Alcotest.fail "expected Violation_failure"
  | exception Contract.Violation_failure v ->
      check_string "kind" "late_data" v.Contract.kind

let test_stall_detection_latches_watchdog () =
  let q = fig5_query () in
  let trace = round_trace ~rounds:80 q in
  let faulted, injections =
    Fault_injector.apply
      { Fault_injector.default with seed = 2; stall = Some ("S1", 100, 200) }
      trace
  in
  check_bool "stall injected" true
    (List.exists
       (fun (i : Fault_injector.injection) -> i.kind = "stall")
       injections);
  let ct, telemetry, _, _ = run_with_contract ~grace:40 q faulted in
  check_bool "stall declared" true (Contract.stall_count ct >= 1);
  check_bool "watchdog alarm latched" true
    (List.exists
       (fun (a : Obs.Watchdog.alarm) -> a.Obs.Watchdog.op = "contract:S1")
       (Telemetry.alarms telemetry));
  (* A stall that outlasts its grace only after the last grid point: both
     drivers check the contract once more at the end of the input, so the
     sequential and the sharded run declare it alike. *)
  let every = 50 in
  let full = round_trace ~rounds:80 q in
  let g = every * ((List.length full - 1) / every) in
  let trace =
    List.filteri
      (fun i e ->
        i < g + (every / 2)
        && not (Element.is_punct e && Element.stream_name e = "S1" && i >= g - 20))
      full
  in
  let g = every * (List.length trace / every) in
  let last_s1 =
    List.fold_left max 0
      (List.mapi
         (fun i e ->
           if Element.is_punct e && Element.stream_name e = "S1" then i + 1
           else 0)
         trace)
  in
  let grace = g - last_s1 in
  check_bool "stall outlasts the grace only after the last grid point" true
    (List.length trace mod every <> 0 && List.length trace - last_s1 > grace);
  let ct, _, _, _ = run_with_contract ~grace q trace in
  let pe =
    Parallel_executor.create ~shards:2
      ~contract_config:{ Contract.default_config with Contract.grace = Some grace }
      q plan3
  in
  let pr = Parallel_executor.run ~sample_every:every pe (List.to_seq trace) in
  let sharded_stalls =
    match List.assoc "contract" (Parallel_executor.report pe pr).Obs.Report.meta with
    | Obs.Json.Obj kv -> List.assoc "punct_stalls" kv
    | _ -> Alcotest.fail "contract meta missing"
  in
  check_int "end-of-run stall declared sequentially" 1 (Contract.stall_count ct);
  check_bool "sequential and sharded stall counts agree" true
    (sharded_stalls = Obs.Json.Int (Contract.stall_count ct))

let test_degrade_budget_sheds_state () =
  (* Under Never the engine hoards every tuple; a byte budget under
     Degrade must trigger emergency eviction instead of unbounded
     growth. *)
  let q = fig5_query () in
  let trace = round_trace ~rounds:120 q in
  let before =
    let c = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Never ()) q plan3 in
    let _ = Executor.run ~sample_every:50 c (List.to_seq trace) in
    Executor.total_state_bytes c
  in
  let ct, _, c, _ =
    run_with_contract ~policy:Purge_policy.Never ~action:Contract.Degrade
      ~budget:(before / 4) q trace
  in
  check_bool "shedding happened" true (Contract.shed_count ct > 0);
  check_bool "state ended below the unshedded run" true
    (Executor.total_state_bytes c < before)

let test_count_action_is_transparent () =
  let q = fig5_query () in
  let _, faulted, _ = late_faulted q in
  let plain = seq_hash q faulted in
  let ct, _, c, r = run_with_contract ~action:Contract.Count q faulted in
  check_bool "violations observed" true (Contract.late_count ct > 0);
  check_string "Count never changes the output" plain
    (Executor.output_hash r.Executor.outputs);
  check_bool "state untouched" true (Executor.total_data_state c >= 0)

(* ------------------------------------------------------------------ *)
(* Shard supervision *)

let test_killed_shard_recovers_to_fault_free_answer () =
  let q = fig5_query () in
  let trace = round_trace ~rounds:80 q in
  let c = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q plan3 in
  let sr = Executor.run ~sample_every:50 c (List.to_seq trace) in
  let clean_hash = Executor.output_hash sr.Executor.outputs in
  let pe =
    Parallel_executor.create ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) ~shards:3
      ~kills:[ { Fault_injector.shard = 1; at_seq = 150 } ]
      q plan3
  in
  let pr = Parallel_executor.run ~sample_every:50 pe (List.to_seq trace) in
  check_int "exactly one crash" 1 (Parallel_executor.crash_count pe);
  check_string "replay recovery reproduces the fault-free output" clean_hash
    (Executor.output_hash pr.Parallel_executor.outputs);
  check_int "final data state agrees with sequential"
    (Executor.total_data_state c)
    (Parallel_executor.total_data_state pe);
  check_bool "sampled state series agrees tick for tick" true
    (Metrics.equal sr.Executor.metrics pr.Parallel_executor.metrics);
  (* the crash is visible in the aggregated report *)
  let rep = Parallel_executor.report pe pr in
  check_bool "report meta records the restart" true
    (List.assoc "shard_crashes" rep.Obs.Report.meta = Obs.Json.Int 1)

let test_restart_budget_exhaustion_fails_the_run () =
  let q = fig5_query () in
  let trace = round_trace ~rounds:40 q in
  let pe =
    Parallel_executor.create ~shards:2 ~max_restarts:0
      ~kills:[ { Fault_injector.shard = 0; at_seq = 50 } ]
      q plan3
  in
  match Parallel_executor.run ~sample_every:50 pe (List.to_seq trace) with
  | _ -> Alcotest.fail "expected Shard_failed"
  | exception Parallel_executor.Shard_failed { shard; attempts; _ } ->
      check_int "failing shard" 0 shard;
      check_int "no restarts allowed" 0 attempts

let test_sharded_contract_fail_is_poison () =
  (* A Violation_failure inside a worker must abort the fleet and
     propagate — replaying it would only crash again. *)
  let q = fig5_query () in
  let _, faulted, _ = late_faulted q in
  let pe =
    Parallel_executor.create ~shards:3
      ~contract_config:
        { Contract.default_config with Contract.action = Contract.Fail }
      q plan3
  in
  match Parallel_executor.run ~sample_every:50 pe (List.to_seq faulted) with
  | _ -> Alcotest.fail "expected Violation_failure"
  | exception Contract.Violation_failure v ->
      check_string "kind" "late_data" v.Contract.kind;
      check_int "no restart burned on poison" 0
        (Parallel_executor.crash_count pe)

let test_sharded_quarantine_matches_sequential () =
  let q = fig5_query () in
  let trace, faulted, n_late = late_faulted q in
  let clean_hash = seq_hash q trace in
  let pe =
    Parallel_executor.create ~shards:3
      ~contract_config:
        { Contract.default_config with Contract.action = Contract.Quarantine }
      q plan3
  in
  let pr = Parallel_executor.run ~sample_every:50 pe (List.to_seq faulted) in
  check_string "sharded quarantine also restores the fault-free output"
    clean_hash
    (Executor.output_hash pr.Parallel_executor.outputs);
  let rep = Parallel_executor.report pe pr in
  match List.assoc "contract" rep.Obs.Report.meta with
  | Obs.Json.Obj kv ->
      check_bool "report sums quarantined tuples across shards" true
        (List.assoc "quarantined" kv = Obs.Json.Int n_late)
  | _ -> Alcotest.fail "contract meta missing"

let () =
  Alcotest.run "fault"
    [
      ( "injector",
        [
          Alcotest.test_case "identity" `Quick test_injector_identity;
          Alcotest.test_case "determinism" `Quick test_injector_determinism;
          Alcotest.test_case "drop removes only puncts" `Quick
            test_injector_drop_only_removes_puncts;
        ] );
      ( "contract",
        [
          Alcotest.test_case "dropped puncts, same answer" `Quick
            test_dropped_puncts_never_change_the_answer;
          Alcotest.test_case "late data detected uncontracted" `Quick
            test_late_data_detected_without_contract;
          Alcotest.test_case "quarantine lossless + clean output" `Quick
            test_quarantine_is_lossless_and_output_clean;
          Alcotest.test_case "fail raises" `Quick test_fail_action_raises;
          Alcotest.test_case "stall latches watchdog" `Quick
            test_stall_detection_latches_watchdog;
          Alcotest.test_case "degrade budget sheds" `Quick
            test_degrade_budget_sheds_state;
          Alcotest.test_case "count is transparent" `Quick
            test_count_action_is_transparent;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "kill recovers to fault-free answer" `Quick
            test_killed_shard_recovers_to_fault_free_answer;
          Alcotest.test_case "restart budget exhaustion" `Quick
            test_restart_budget_exhaustion_fails_the_run;
          Alcotest.test_case "contract failure is poison" `Quick
            test_sharded_contract_fail_is_poison;
          Alcotest.test_case "sharded quarantine = sequential" `Quick
            test_sharded_quarantine_matches_sequential;
        ] );
    ]
