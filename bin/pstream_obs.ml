(* pstream-obs: offline telemetry tooling. `verify` closes the provenance
   loop CI relies on: replay a JSONL event trace, recompute every
   per-operator counter independently, and insist the JSON report written
   by the same run agrees — plus optional expectations about watchdog
   alarms (quiet on safe runs, naming the unreachable input on forced
   unsafe runs). *)

open Cmdliner

let read_report path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Obs.Json.parse s with
  | Ok j -> Ok j
  | Error e -> Error (Fmt.str "%s: %s" path e)

let read_trace path =
  let ic = open_in path in
  let events = ref [] in
  let line_no = ref 0 in
  let result =
    try
      let rec loop () =
        let line = input_line ic in
        incr line_no;
        if String.trim line <> "" then begin
          match Obs.Event.of_line line with
          | Ok e -> events := e :: !events
          | Error msg ->
              failwith (Fmt.str "%s:%d: %s" path !line_no msg)
        end;
        loop ()
      in
      loop ()
    with
    | End_of_file -> Ok (List.rev !events)
    | Failure msg -> Error msg
  in
  close_in ic;
  result

let report_alarms report =
  match Option.bind (Obs.Json.member "alarms" report) Obs.Json.to_list with
  | None -> []
  | Some alarms ->
      List.filter_map
        (fun a ->
          let op =
            Option.bind (Obs.Json.member "op" a) Obs.Json.to_str
          and unreachable =
            match
              Option.bind
                (Obs.Json.member "unreachable_inputs" a)
                Obs.Json.to_list
            with
            | Some l -> List.filter_map Obs.Json.to_str l
            | None -> []
          in
          Option.map (fun op -> (op, unreachable)) op)
        alarms

let verify report_path trace_path expect_quiet expect_alarms =
  match read_report report_path, read_trace trace_path with
  | Error e, _ | _, Error e ->
      Fmt.epr "%s@." e;
      1
  | Ok report, Ok events -> (
      let problems = ref [] in
      (match Obs.Report.verify ~report ~events with
      | Ok () -> ()
      | Error ps -> problems := !problems @ ps);
      let alarms = report_alarms report in
      if expect_quiet && alarms <> [] then
        problems :=
          !problems
          @ List.map
              (fun (op, unreachable) ->
                Fmt.str
                  "expected a quiet watchdog, got an alarm on %s \
                   (unreachable: %s)"
                  op
                  (String.concat ", " unreachable))
              alarms;
      List.iter
        (fun input ->
          if
            not
              (List.exists
                 (fun (_, unreachable) -> List.mem input unreachable)
                 alarms)
          then
            problems :=
              !problems
              @ [
                  Fmt.str
                    "expected a watchdog alarm naming unreachable input %s; \
                     report has %d alarm(s)"
                    input (List.length alarms);
                ])
        expect_alarms;
      match !problems with
      | [] ->
          Fmt.pr "verify OK: %d trace events consistent with %s@."
            (List.length events) report_path;
          0
      | ps ->
          List.iter (fun p -> Fmt.epr "verify FAIL: %s@." p) ps;
          1)

let report_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"REPORT" ~doc:"JSON run report (pstream-run --report).")

let trace_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"TRACE" ~doc:"JSONL event trace (pstream-run --trace).")

let expect_quiet =
  Arg.(
    value & flag
    & info [ "expect-quiet" ]
        ~doc:"Fail if the report contains any watchdog alarm.")

let expect_alarms =
  Arg.(
    value
    & opt_all string []
    & info [ "expect-alarm" ] ~docv:"INPUT"
        ~doc:
          "Fail unless some watchdog alarm names $(docv) among its \
           unreachable inputs (repeatable).")

let verify_cmd =
  let doc = "replay a trace and check it against the run report" in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const verify $ report_arg $ trace_arg $ expect_quiet $ expect_alarms)

(* --- scrape: one-shot pull from a live exporter endpoint --------------- *)

let address_arg =
  let parse s =
    match Obs.Exporter.address_of_string s with
    | Ok a -> Ok a
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Obs.Exporter.pp_address)

let connect_arg =
  Arg.(
    required
    & opt (some address_arg) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Exporter endpoint: $(b,PORT), $(b,HOST:PORT) or \
           $(b,unix:PATH) (as printed by pstream-run --listen).")

let require_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "require" ] ~docv:"FAMILY"
        ~doc:
          "Fail unless the exposition declares metric family $(docv) \
           (repeatable).")

let catalog_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "catalog" ] ~docv:"FILE"
        ~doc:
          "Fail if any scraped family name is absent from $(docv) \
           (e.g. docs/TELEMETRY.md) — keeps the metric catalog honest.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ] ~doc:"Validate only; do not print the exposition.")

let scrape address requires catalog quiet =
  match Obs_client.scrape address with
  | Error e ->
      Fmt.epr "scrape: %s@." e;
      1
  | Ok scraped -> (
      if not quiet then print_string scraped.Obs_client.text;
      let families = Obs_client.families_of_text scraped.Obs_client.text in
      let missing =
        List.filter (fun f -> not (List.mem_assoc f families)) requires
      in
      List.iter
        (fun f -> Fmt.epr "scrape: required family %s missing@." f)
        missing;
      let uncataloged =
        match catalog with
        | None -> []
        | Some path ->
            let catalog_text = Obs_client.read_file path in
            Obs_client.catalog_missing ~catalog_text families
      in
      List.iter
        (fun (name, kind) ->
          Fmt.epr "scrape: family %s (%s) is not in the catalog@." name kind)
        uncataloged;
      match (missing, uncataloged) with [], [] -> 0 | _ -> 1)

let scrape_cmd =
  let doc = "fetch one OpenMetrics exposition from a running engine" in
  Cmd.v (Cmd.info "scrape" ~doc)
    Term.(const scrape $ connect_arg $ require_arg $ catalog_arg $ quiet_arg)

(* --- tail: filtered human view of a JSONL trace ------------------------ *)

let tail trace_path ops kinds since_tick =
  match read_trace trace_path with
  | Error e ->
      Fmt.epr "%s@." e;
      1
  | Ok events ->
      let keep e =
        Obs.Event.tick_of e >= since_tick
        && (ops = []
           || match Obs.Event.op_of e with
              | Some op -> List.mem op ops
              | None -> false)
        && (kinds = [] || List.mem (Obs_client.event_kind e) kinds)
      in
      let shown = List.filter keep events in
      List.iter (fun e -> Fmt.pr "%a@." Obs_client.pp_event e) shown;
      Fmt.pr "-- %d/%d events@." (List.length shown) (List.length events);
      0

let tail_trace_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE" ~doc:"JSONL event trace (pstream-run --trace).")

let tail_op_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "op" ] ~docv:"NAME"
        ~doc:"Show only events of operator $(docv) (repeatable).")

let tail_event_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "event" ] ~docv:"KIND"
        ~doc:
          "Show only events of kind $(docv) — tuple_in, punct_in, purge, \
           purge_round, sample, alarm, violation, … (repeatable).")

let tail_since_arg =
  Arg.(
    value & opt int 0
    & info [ "since-tick" ] ~docv:"N"
        ~doc:"Show only events with tick >= $(docv).")

let tail_cmd =
  let doc = "pretty-print a trace, filtered by operator/kind/tick" in
  Cmd.v (Cmd.info "tail" ~doc)
    Term.(
      const tail $ tail_trace_arg $ tail_op_arg $ tail_event_arg
      $ tail_since_arg)

(* --- soakcheck: validate the B5 kill-storm soak artifact ---------------- *)

(* CI used to probe bench JSON with grep/sed; this parses it properly and
   re-derives every claim from the run rows instead of trusting the
   summary booleans. *)
let soakcheck path expect_kills =
  match read_report path with
  | Error e ->
      Fmt.epr "%s@." e;
      1
  | Ok j -> (
      let problems = ref [] in
      let problem fmt = Fmt.kstr (fun s -> problems := !problems @ [ s ]) fmt in
      let str name o = Option.bind (Obs.Json.member name o) Obs.Json.to_str in
      let int_ name o = Option.bind (Obs.Json.member name o) Obs.Json.to_int in
      let bool_ name o =
        match Obs.Json.member name o with
        | Some (Obs.Json.Bool b) -> Some b
        | _ -> None
      in
      (match str "benchmark" j with
      | Some "kill_storm_soak" -> ()
      | Some other -> problem "benchmark is %S, expected kill_storm_soak" other
      | None -> problem "missing \"benchmark\" field");
      let runs =
        match Option.bind (Obs.Json.member "runs" j) Obs.Json.to_list with
        | Some rs -> rs
        | None ->
            problem "missing \"runs\" array";
            []
      in
      let find id = List.find_opt (fun r -> str "id" r = Some id) runs in
      let interval = Option.value (int_ "interval_elements" j) ~default:0 in
      if interval <= 0 then problem "missing or non-positive interval_elements";
      (match (find "fault_free", find "kill_storm") with
      | None, _ -> problem "no fault_free run row"
      | _, None -> problem "no kill_storm run row"
      | Some clean, Some storm ->
          (match (str "digest" clean, str "digest" storm) with
          | Some a, Some b when String.equal a b -> ()
          | Some a, Some b ->
              problem "output digest diverged: fault_free %s vs kill_storm %s"
                a b
          | _ -> problem "run rows are missing digests");
          (match (int_ "results" clean, int_ "results" storm) with
          | Some a, Some b when a = b && a > 0 -> ()
          | Some a, Some b -> problem "results differ: %d vs %d" a b
          | _ -> problem "run rows are missing result counts");
          let kills = Option.value (int_ "kills" storm) ~default:0 in
          let restarts = Option.value (int_ "restarts" storm) ~default:0 in
          let restored = Option.value (int_ "restored" storm) ~default:0 in
          let max_replayed =
            Option.value (int_ "max_replayed" storm) ~default:max_int
          in
          if kills < expect_kills then
            problem "storm armed %d kills, expected at least %d" kills
              expect_kills;
          if restarts < kills then
            problem "only %d restarts for %d kills — some never fired" restarts
              kills;
          if restored <> restarts then
            problem "%d of %d restarts were not checkpoint restores"
              (restarts - restored) restarts;
          if interval > 0 && max_replayed > interval then
            problem "max replay %d exceeds the checkpoint interval %d"
              max_replayed interval;
          match
            (int_ "rss_peak_kb" storm, bool_ "rss_flat" j)
          with
          | Some peak, _ when peak <= 0 ->
              problem "storm run recorded no RSS samples"
          | _, Some false -> problem "rss_flat is false: driver RSS drifted"
          | _, None -> problem "missing \"rss_flat\" field"
          | _ -> ());
      List.iter
        (fun (name, v) ->
          match (bool_ name j, v) with
          | Some true, _ -> ()
          | Some false, _ -> problem "%s is false" name
          | None, _ -> problem "missing %S field" name)
        [ ("hash_match", true); ("replay_bounded", true) ];
      match !problems with
      | [] ->
          Fmt.pr "soakcheck OK: %s (storm digest equals fault-free, replay \
                  bounded by %d elements)@."
            path interval;
          0
      | ps ->
          List.iter (fun p -> Fmt.epr "soakcheck FAIL: %s@." p) ps;
          1)

let soak_path_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SOAK_JSON"
        ~doc:"The B5 soak artifact (bench/main.exe -- B5 writes \
              BENCH_soak.json).")

let expect_kills_arg =
  Arg.(
    value & opt int 1
    & info [ "expect-kills" ] ~docv:"N"
        ~doc:"Fail unless the storm armed at least $(docv) kills.")

let soakcheck_cmd =
  let doc = "validate a kill-storm soak artifact (BENCH_soak.json)" in
  Cmd.v (Cmd.info "soakcheck" ~doc)
    Term.(const soakcheck $ soak_path_arg $ expect_kills_arg)

(* --- benchcheck: the hot-path throughput regression gate --------------- *)

(* Per-scenario [batch_per_s] of a BENCH_hot_path.json, or the reasons it
   is malformed. *)
let hot_path_rates path =
  match read_report path with
  | Error e -> Error [ e ]
  | Ok j -> (
      let str name o = Option.bind (Obs.Json.member name o) Obs.Json.to_str in
      let rate o =
        match Obs.Json.member "batch_per_s" o with
        | Some v -> (
            match Obs.Json.to_int v with
            | Some n -> Some n
            | None -> Option.map int_of_float (Obs.Json.to_float v))
        | None -> None
      in
      match
        (str "benchmark" j, Option.bind (Obs.Json.member "runs" j) Obs.Json.to_list)
      with
      | Some "hot_path", Some (_ :: _ as runs) ->
          let rows =
            List.map
              (fun r ->
                match (str "scenario" r, rate r) with
                | Some s, Some n -> Ok (s, n)
                | _ ->
                    Error
                      (Fmt.str "%s: a run row lacks scenario or batch_per_s" path))
              runs
          in
          let bad = List.filter_map (function Error e -> Some e | Ok _ -> None) rows in
          if bad <> [] then Error bad
          else Ok (List.filter_map Result.to_option rows)
      | Some "hot_path", _ -> Error [ Fmt.str "%s: no \"runs\" rows" path ]
      | _ -> Error [ Fmt.str "%s: not a hot_path benchmark artifact" path ])

(* Fails when a scenario's batched throughput drops below 70% of the
   baseline: a >30% regression must be investigated, not committed by
   inertia. Scenarios present on one side only are reported, not failed. *)
let benchcheck new_path baseline_path =
  match (hot_path_rates new_path, hot_path_rates baseline_path) with
  | Error es, _ | _, Error es ->
      List.iter (fun e -> Fmt.epr "benchcheck FAIL: %s@." e) es;
      1
  | Ok fresh, Ok base ->
      let failed = ref false in
      List.iter
        (fun (scenario, old_rate) ->
          match List.assoc_opt scenario fresh with
          | None ->
              Fmt.epr "benchcheck: NOTE scenario '%s' present in baseline only@."
                scenario
          | Some rate when rate * 10 < old_rate * 7 ->
              failed := true;
              Fmt.epr
                "benchcheck FAIL %s: batch_per_s %d -> %d (more than 30%% \
                 regression)@."
                scenario old_rate rate
          | Some rate ->
              Fmt.pr "benchcheck: ok   %s: batch_per_s %d -> %d@." scenario
                old_rate rate)
        base;
      List.iter
        (fun (scenario, _) ->
          if not (List.mem_assoc scenario base) then
            Fmt.epr "benchcheck: NOTE scenario '%s' is new (no baseline)@."
              scenario)
        fresh;
      if !failed then 1 else 0

let bench_path_arg ~pos:p ~docv ~doc =
  Arg.(required & pos p (some file) None & info [] ~docv ~doc)

let benchcheck_cmd =
  let doc =
    "fail when any BENCH_hot_path.json scenario lost more than 30% batched \
     throughput against a baseline artifact"
  in
  Cmd.v (Cmd.info "benchcheck" ~doc)
    Term.(
      const benchcheck
      $ bench_path_arg ~pos:0 ~docv:"NEW" ~doc:"The freshly written artifact."
      $ bench_path_arg ~pos:1 ~docv:"BASELINE"
          ~doc:"The artifact to compare against (e.g. the one tracked at HEAD).")

(* --- top: live terminal view ------------------------------------------- *)

let top address interval once =
  Obs_client.run_top ~address ~interval ~once

let interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "interval"; "i" ] ~docv:"SECS" ~doc:"Refresh interval.")

let once_arg =
  Arg.(
    value & flag
    & info [ "once" ] ~doc:"Render a single frame and exit (no screen reset).")

let top_cmd =
  let doc = "live per-operator view of a running engine" in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const top $ connect_arg $ interval_arg $ once_arg)

let cmd =
  let doc = "inspect and verify pstream telemetry artifacts" in
  Cmd.group
    (Cmd.info "pstream-obs" ~doc)
    [ verify_cmd; scrape_cmd; tail_cmd; top_cmd; soakcheck_cmd; benchcheck_cmd ]

let () = exit (Cmd.eval' cmd)
