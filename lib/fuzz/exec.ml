module Trace = Rdt_obs.Trace
module Meter = Rdt_obs.Meter
module Replay = Rdt_obs.Replay
module Online = Rdt_check.Online
module Checker = Rdt_core.Checker
module P = Rdt_pattern.Pattern

type mutation = Hide_rollbacks | Flip_rgraph

let mutation_name = function Hide_rollbacks -> "hide-rollbacks" | Flip_rgraph -> "flip-rgraph"

let mutation_of_string = function
  | "hide-rollbacks" -> Ok Hide_rollbacks
  | "flip-rgraph" -> Ok Flip_rgraph
  | s -> Error (Printf.sprintf "unknown mutation %S (expected hide-rollbacks or flip-rgraph)" s)

type kind = Rdt_violation | Checker_divergence | Drain_failure | Crash

let kind_name = function
  | Rdt_violation -> "rdt-violation"
  | Checker_divergence -> "checker-divergence"
  | Drain_failure -> "drain-failure"
  | Crash -> "crash"

type outcome = Pass | Fail of { kind : kind; detail : string }

type report = {
  scenario : Scenario.t;
  outcome : outcome;
  events : Trace.event list;
  rdt : bool;
  first_violation : int option;
}

(* The run itself: pattern + optional transport stats, with the live
   trace collected and the online engine fed through a tee. *)
let execute (sc : Scenario.t) eng collect =
  let protocol = Rdt_core.Registry.find_exn sc.protocol in
  let env = Rdt_workloads.Registry.find_exn sc.env in
  let tr = Trace.tee collect (Online.observer eng) in
  Trace.emit tr
    (Trace.Meta { n = sc.n; protocol = sc.protocol; env = sc.env; seed = sc.run_seed; mode = "fuzz" });
  let transport =
    if sc.transport then
      Some { Rdt_dist.Transport.retx_timeout = sc.retx_timeout; max_retx = sc.max_retx }
    else None
  in
  let r =
    Rdt_core.Runtime.run
      (Rdt_core.Runtime.configure ~n:sc.n ~seed:sc.run_seed ~messages:sc.messages
         ~channel:sc.channel ~basic_period:sc.basic_period ~crashes:sc.crashes ~faults:sc.faults
         ?transport ~trace:tr env protocol)
  in
  (r.pattern, r.transport)

let audit ?mutation (sc : Scenario.t) eng events pat (rg : Checker.report) transport_stats =
  let fail kind detail = Fail { kind; detail } in
  (* 1. the run must have drained: with a transport, every accepted
     message ended delivered or abandoned *)
  let drain =
    match transport_stats with
    | Some (s : Rdt_dist.Transport.stats) ->
        if s.accepted <> s.delivered + s.undeliverable then
          Some
            (Printf.sprintf "transport conservation broken: accepted %d <> delivered %d + undeliverable %d"
               s.accepted s.delivered s.undeliverable)
        else None
    | None -> None
  in
  match drain with
  | Some detail -> fail Drain_failure detail
  | None -> (
      (* 2. a complete stream must not end mid-rollback-cascade *)
      match Online.orphan_messages eng with
      | _ :: _ as orphans ->
          fail Checker_divergence
            (Printf.sprintf "live stream ended with orphan deliveries of messages %s"
               (String.concat ", " (List.map string_of_int orphans)))
      | [] ->
          (* 3. all four checker algorithms and the live engine agree *)
          let rg_verdict =
            match mutation with Some Flip_rgraph -> not rg.Checker.rdt | _ -> rg.Checker.rdt
          in
          let verdicts =
            [
              ("rgraph", rg_verdict);
              ("chains", (Checker.run ~algo:`Chains pat).Checker.rdt);
              ("doubling", (Checker.run ~algo:`Doubling pat).Checker.rdt);
              ("online-pattern", (Checker.run ~algo:`Online pat).Checker.rdt);
              ("online-live", Online.rdt_so_far eng);
            ]
          in
          if List.exists (fun (_, v) -> v <> rg_verdict) verdicts then
            fail Checker_divergence
              (Printf.sprintf "checker verdicts disagree: %s"
                 (String.concat ", "
                    (List.map (fun (name, v) -> Printf.sprintf "%s=%b" name v) verdicts)))
          else if Oracle.affordable pat && Oracle.rdt pat <> rg_verdict then
            (* 4. brute-force oracle on small patterns *)
            fail Checker_divergence
              (Printf.sprintf "brute-force oracle says rdt=%b, checkers say %b"
                 (Oracle.rdt pat) rg_verdict)
          else begin
            (* 5. the trace must rebuild to the exact surviving pattern *)
            let replay_events =
              match mutation with
              | Some Hide_rollbacks ->
                  List.filter (function Trace.Rollback _ -> false | _ -> true) events
              | _ -> events
            in
            match Replay.rebuild replay_events with
            | Error e -> fail Checker_divergence (Printf.sprintf "replay rebuild failed: %s" e)
            | Ok rebuilt ->
                if not (P.equal rebuilt pat) then
                  fail Checker_divergence
                    "rebuilt pattern differs from the live run's surviving pattern"
                else if
                  (* 6. the protocol's guarantee itself *)
                  Rdt_core.Protocol.ensures_rdt (Rdt_core.Registry.find_exn sc.protocol)
                  && not rg_verdict
                then
                  fail Rdt_violation
                    (Printf.sprintf "protocol %s produced a non-RDT pattern%s" sc.protocol
                       (match Online.first_violation eng with
                       | Some i -> Printf.sprintf " (first violation at event %d)" i
                       | None -> ""))
                else Pass
          end)

let run ?mutation sc =
  (match Scenario.validate sc with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Exec.run: invalid scenario: %s" e));
  Meter.time Meter.default "fuzz.exec" (fun () ->
      let acc = ref [] in
      let collect = Trace.observer (fun ev -> acc := ev :: !acc) in
      let eng = Online.create ~n:sc.n () in
      let outcome, events, rdt =
        match execute sc eng collect with
        | pat, stats ->
            let events = List.rev !acc in
            let rg = Checker.run pat in
            (audit ?mutation sc eng events pat rg stats, events, rg.Checker.rdt)
        | exception Online.Inconsistent e ->
            ( Fail
                {
                  kind = Checker_divergence;
                  detail = Printf.sprintf "online engine rejected the live stream: %s" e;
                },
              List.rev !acc,
              false )
        | exception e ->
            ( Fail { kind = Crash; detail = Printexc.to_string e },
              List.rev !acc,
              false )
      in
      (match outcome with
      | Pass -> Meter.incr Meter.default "fuzz.ok"
      | Fail { kind; _ } -> Meter.incr Meter.default ("fuzz." ^ kind_name kind));
      {
        scenario = sc;
        outcome;
        events;
        rdt;
        first_violation = Online.first_violation eng;
      })

let classify ?mutation sc = (run ?mutation sc).outcome
