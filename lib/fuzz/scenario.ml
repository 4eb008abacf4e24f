module Rng = Rdt_dist.Rng
module Faults = Rdt_dist.Faults
module Channel = Rdt_dist.Channel
module Json = Rdt_obs.Trace.Json

type crash = Rdt_core.Runtime.crash = { victim : int; at : int; repair_delay : int }

type t = {
  run_seed : int;
  n : int;
  protocol : string;
  env : string;
  messages : int;
  basic_period : int * int;
  channel : Rdt_dist.Channel.spec;
  faults : Rdt_dist.Faults.spec;
  transport : bool;
  retx_timeout : int;
  max_retx : int;
  crashes : crash list;
}

type space = {
  protocols : string list;
  envs : string list;
  max_n : int;
  max_messages : int;
  fault_prob : float;
  crash_prob : float;
}

let default_space =
  {
    protocols = List.map Rdt_core.Protocol.name Rdt_core.Registry.rdt_protocols;
    envs = Rdt_workloads.Registry.names;
    max_n = 6;
    max_messages = 150;
    fault_prob = 0.6;
    crash_prob = 0.5;
  }

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let pick rng l = Rng.pick rng (Array.of_list l)

let generate ?(space = default_space) ~seed () =
  if space.protocols = [] then invalid_arg "Scenario.generate: empty protocol list";
  if space.envs = [] then invalid_arg "Scenario.generate: empty env list";
  if space.max_n < 2 then invalid_arg "Scenario.generate: max_n must be >= 2";
  if space.max_messages < 20 then invalid_arg "Scenario.generate: max_messages must be >= 20";
  let rng = Rng.create (Rng.derive_seed seed "fuzz.scenario") in
  let n = Rng.int_in rng 2 space.max_n in
  let protocol = pick rng space.protocols in
  let env = pick rng space.envs in
  let messages = Rng.int_in rng 20 space.max_messages in
  (* rough upper bound on interesting times: enough for schedules to land
     mid-run under the default delay scales *)
  let horizon = (25 * messages) + 1000 in
  let basic_period =
    pick rng [ (300, 700); (100, 300); (50, 800); (200, 200) ]
  in
  let channel =
    pick rng
      [
        Channel.Uniform (5, 100);
        Channel.Uniform (1, 300);
        Channel.Fixed 20;
        Channel.Bimodal { fast = 10; slow = 250; slow_prob = 0.1 };
      ]
  in
  let faults =
    if not (Rng.bernoulli rng space.fault_prob) then Faults.none
    else begin
      let rate cap = if Rng.bool rng then Rng.float rng cap else 0.0 in
      let drop = rate 0.25 in
      let dup = rate 0.2 in
      let reorder = rate 0.25 in
      let reorder_window = if reorder > 0.0 then Rng.int_in rng 10 80 else 0 in
      let partitions =
        List.init (Rng.int rng 3) (fun _ ->
            let a = Rng.int rng n in
            let between =
              if n > 2 && Rng.bool rng then [ a; (a + 1 + Rng.int rng (n - 1)) mod n ] else [ a ]
            in
            let from_t = Rng.int rng horizon in
            { Faults.between = List.sort_uniq compare between;
              from_t;
              to_t = from_t + Rng.int_in rng 200 2000;
            })
      in
      let intermittent =
        List.init (Rng.int rng 3) (fun _ ->
            let host = Rng.int rng n in
            let from_t = Rng.int rng horizon in
            {
              Faults.host;
              from_t;
              to_t = from_t + Rng.int_in rng 400 4000;
              up = Rng.int_in rng 50 400;
              down = Rng.int_in rng 50 400;
            })
      in
      { Faults.drop; dup; reorder; reorder_window; partitions; intermittent }
    end
  in
  let transport = (not (Faults.is_none faults)) || Rng.bernoulli rng 0.25 in
  let retx_timeout = if transport then Rng.int_in rng 100 400 else 250 in
  let max_retx = if transport then Rng.int_in rng 8 25 else 25 in
  let crashes =
    if not (Rng.bernoulli rng space.crash_prob) then []
    else begin
      let k = Rng.int_in rng 1 3 in
      let t = ref (Rng.int_in rng 300 (max 301 (horizon / 2))) in
      List.init k (fun _ ->
          let victim = Rng.int rng n in
          let at = !t in
          let repair_delay = Rng.int_in rng 50 500 in
          (* keep successive crashes globally disjoint so the per-victim
             non-overlap rule holds whatever victims were drawn *)
          t := at + repair_delay + Rng.int_in rng 300 1500;
          { victim; at; repair_delay })
    end
  in
  {
    run_seed = Rng.derive_seed seed "fuzz.run";
    n;
    protocol;
    env;
    messages;
    basic_period;
    channel;
    faults;
    transport;
    retx_timeout;
    max_retx;
    crashes;
  }

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate sc =
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let check cond msg = if cond then Ok () else Error msg in
  check (sc.n >= 2) "n must be >= 2" >>= fun () ->
  check (Option.is_some (Rdt_core.Registry.find sc.protocol))
    (Printf.sprintf "unknown protocol %S" sc.protocol)
  >>= fun () ->
  check
    (Option.is_some (Rdt_workloads.Registry.find sc.env))
    (Printf.sprintf "unknown env %S" sc.env)
  >>= fun () ->
  check (sc.messages >= 1) "messages must be >= 1" >>= fun () ->
  check (fst sc.basic_period >= 0 && snd sc.basic_period >= fst sc.basic_period)
    "basic_period must satisfy 0 <= lo <= hi"
  >>= fun () ->
  Faults.validate ~n:sc.n sc.faults >>= fun () ->
  check (sc.transport || Faults.is_none sc.faults) "faults require the transport" >>= fun () ->
  check (sc.retx_timeout >= 1) "retx_timeout must be >= 1" >>= fun () ->
  check (sc.max_retx >= 1) "max_retx must be >= 1" >>= fun () ->
  let rec crashes last = function
    | [] -> Ok ()
    | c :: rest ->
        check (c.victim >= 0 && c.victim < sc.n)
          (Printf.sprintf "crash victim %d out of range" c.victim)
        >>= fun () ->
        check (c.at >= 0) "crash time must be >= 0" >>= fun () ->
        check (c.repair_delay >= 1) "repair_delay must be >= 1" >>= fun () ->
        check (c.at > last) "crashes must be disjoint and in increasing time order" >>= fun () ->
        crashes (c.at + c.repair_delay) rest
  in
  crashes (-1) sc.crashes

(* ------------------------------------------------------------------ *)
(* Shrink measure                                                      *)
(* ------------------------------------------------------------------ *)

let size sc =
  let flag b = if b then 1 else 0 in
  sc.messages + (10 * sc.n)
  + (50 * List.length sc.crashes)
  + (30 * (List.length sc.faults.Faults.partitions + List.length sc.faults.Faults.intermittent))
  + 5
    * (flag (sc.faults.Faults.drop > 0.0)
      + flag (sc.faults.Faults.dup > 0.0)
      + flag (sc.faults.Faults.reorder > 0.0))
  + (5 * flag sc.transport)
  + (2 * flag (sc.basic_period <> (0, 0)))

let measure sc =
  let schedule =
    List.fold_left (fun acc c -> acc + c.at + c.repair_delay) 0 sc.crashes
    + List.fold_left
        (fun acc (p : Faults.partition) -> acc + p.from_t + p.to_t)
        0 sc.faults.Faults.partitions
    + List.fold_left
        (fun acc (l : Faults.intermittent) -> acc + l.from_t + l.to_t)
        0 sc.faults.Faults.intermittent
    + fst sc.basic_period + snd sc.basic_period
  in
  (size sc, schedule)

let restrict sc ~n =
  let faults =
    {
      sc.faults with
      Faults.partitions =
        List.filter_map
          (fun (p : Faults.partition) ->
            match List.filter (fun pid -> pid < n) p.between with
            | [] -> None
            | between -> Some { p with Faults.between })
          sc.faults.Faults.partitions;
      intermittent =
        List.filter (fun (l : Faults.intermittent) -> l.host < n) sc.faults.Faults.intermittent;
    }
  in
  { sc with n; faults; crashes = List.filter (fun c -> c.victim < n) sc.crashes }

let equal (a : t) b = a = b

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let encode sc =
  let b = Buffer.create 512 in
  let crash c =
    Printf.sprintf "{\"victim\":%d,\"at\":%d,\"repair\":%d}" c.victim c.at c.repair_delay
  in
  let partition (p : Faults.partition) =
    Printf.sprintf "{\"between\":[%s],\"from\":%d,\"to\":%d}"
      (String.concat "," (List.map string_of_int p.between))
      p.from_t p.to_t
  in
  let flaky (l : Faults.intermittent) =
    Printf.sprintf "{\"host\":%d,\"from\":%d,\"to\":%d,\"up\":%d,\"down\":%d}" l.host l.from_t
      l.to_t l.up l.down
  in
  let channel =
    match sc.channel with
    | Channel.Fixed d -> Printf.sprintf "{\"kind\":\"fixed\",\"delay\":%d}" d
    | Channel.Uniform (lo, hi) -> Printf.sprintf "{\"kind\":\"uniform\",\"lo\":%d,\"hi\":%d}" lo hi
    | Channel.Bimodal { fast; slow; slow_prob } ->
        Printf.sprintf "{\"kind\":\"bimodal\",\"fast\":%d,\"slow\":%d,\"slow_prob\":%s}" fast slow
          (float_lit slow_prob)
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"run_seed\":%d,\"n\":%d,\"protocol\":\"%s\",\"env\":\"%s\",\"messages\":%d,\"basic\":[%d,%d],\"channel\":%s,"
       sc.run_seed sc.n sc.protocol sc.env sc.messages (fst sc.basic_period)
       (snd sc.basic_period) channel);
  Buffer.add_string b
    (Printf.sprintf
       "\"faults\":{\"drop\":%s,\"dup\":%s,\"reorder\":%s,\"window\":%d,\"partitions\":[%s],\"intermittent\":[%s]},"
       (float_lit sc.faults.Faults.drop) (float_lit sc.faults.Faults.dup)
       (float_lit sc.faults.Faults.reorder) sc.faults.Faults.reorder_window
       (String.concat "," (List.map partition sc.faults.Faults.partitions))
       (String.concat "," (List.map flaky sc.faults.Faults.intermittent)));
  Buffer.add_string b
    (Printf.sprintf "\"transport\":%b,\"retx_timeout\":%d,\"max_retx\":%d,\"crashes\":[%s]}"
       sc.transport sc.retx_timeout sc.max_retx
       (String.concat "," (List.map crash sc.crashes)));
  Buffer.contents b

let decode line =
  let ( let* ) = Result.bind in
  let num_f obj name =
    let* v = Json.field obj name in
    match v with
    | Json.Int i -> Ok (float_of_int i)
    | Json.Float f -> Ok f
    | _ -> Error (Printf.sprintf "field %S is not a number" name)
  in
  let list_f obj name of_item =
    let* v = Json.field obj name in
    match v with
    | Json.Arr items ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* x = of_item item in
            Ok (x :: acc))
          items (Ok [])
    | _ -> Error (Printf.sprintf "field %S is not an array" name)
  in
  match Json.parse line with
  | Error e -> Error e
  | Ok (Json.Obj _ as obj) ->
      let* run_seed = Json.int_f obj "run_seed" in
      let* n = Json.int_f obj "n" in
      let* protocol = Json.str_f obj "protocol" in
      let* env = Json.str_f obj "env" in
      let* messages = Json.int_f obj "messages" in
      let* basic =
        let* v = Json.field obj "basic" in
        match v with
        | Json.Arr [ Json.Int lo; Json.Int hi ] -> Ok (lo, hi)
        | _ -> Error "field \"basic\" is not a pair of integers"
      in
      let* channel =
        let* c = Json.field obj "channel" in
        let* kind = Json.str_f c "kind" in
        match kind with
        | "fixed" ->
            let* d = Json.int_f c "delay" in
            Ok (Channel.Fixed d)
        | "uniform" ->
            let* lo = Json.int_f c "lo" in
            let* hi = Json.int_f c "hi" in
            Ok (Channel.Uniform (lo, hi))
        | "bimodal" ->
            let* fast = Json.int_f c "fast" in
            let* slow = Json.int_f c "slow" in
            let* slow_prob = num_f c "slow_prob" in
            Ok (Channel.Bimodal { fast; slow; slow_prob })
        | k -> Error (Printf.sprintf "unknown channel kind %S" k)
      in
      let* faults =
        let* f = Json.field obj "faults" in
        let* drop = num_f f "drop" in
        let* dup = num_f f "dup" in
        let* reorder = num_f f "reorder" in
        let* reorder_window = Json.int_f f "window" in
        let* partitions =
          list_f f "partitions" (fun p ->
              let* between =
                list_f p "between" (function
                  | Json.Int i -> Ok i
                  | _ -> Error "non-integer partition member")
              in
              let* from_t = Json.int_f p "from" in
              let* to_t = Json.int_f p "to" in
              Ok { Faults.between; from_t; to_t })
        in
        let* intermittent =
          list_f f "intermittent" (fun l ->
              let* host = Json.int_f l "host" in
              let* from_t = Json.int_f l "from" in
              let* to_t = Json.int_f l "to" in
              let* up = Json.int_f l "up" in
              let* down = Json.int_f l "down" in
              Ok { Faults.host; from_t; to_t; up; down })
        in
        Ok { Faults.drop; dup; reorder; reorder_window; partitions; intermittent }
      in
      let* transport = Json.bool_f obj "transport" in
      let* retx_timeout = Json.int_f obj "retx_timeout" in
      let* max_retx = Json.int_f obj "max_retx" in
      let* crashes =
        list_f obj "crashes" (fun c ->
            let* victim = Json.int_f c "victim" in
            let* at = Json.int_f c "at" in
            let* repair_delay = Json.int_f c "repair" in
            Ok { victim; at; repair_delay })
      in
      Ok
        {
          run_seed;
          n;
          protocol;
          env;
          messages;
          basic_period = basic;
          channel;
          faults;
          transport;
          retx_timeout;
          max_retx;
          crashes;
        }
  | Ok _ -> Error "not a JSON object"

let to_file path sc =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (encode sc);
      output_char oc '\n')

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
      match decode (String.trim contents) with
      | Ok sc -> Ok sc
      | Error e -> Error (Printf.sprintf "%s: %s" path e))

let pp ppf sc =
  Format.fprintf ppf "@[<h>%s/%s n=%d msgs=%d seed=%d basic=[%d;%d] %a%s" sc.protocol sc.env sc.n
    sc.messages sc.run_seed (fst sc.basic_period) (snd sc.basic_period) Faults.pp sc.faults
    (if sc.transport then Printf.sprintf " transport(rto=%d,retx=%d)" sc.retx_timeout sc.max_retx
     else "");
  List.iter
    (fun c -> Format.fprintf ppf " crash{%d}@@%d+%d" c.victim c.at c.repair_delay)
    sc.crashes;
  Format.fprintf ppf "@]"
