module T = Rdt_obs.Trace
module Json = Rdt_obs.Trace.Json

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type backend = {
  engine : unit -> Online.t;
  observe : T.event -> unit;
  sync : unit -> unit;
  close : unit -> unit;
}

(* [failed] (inconsistent stream) refuses further events but must not
   block [close] from releasing the backend's resources. *)
type t = { backend : backend; mutable failed : bool; mutable released : bool }

let of_backend backend = { backend; failed = false; released = false }

let ephemeral ?track_open ~n () =
  let eng = Online.create ?track_open ~n () in
  of_backend
    {
      engine = (fun () -> eng);
      observe = Online.observe eng;
      sync = (fun () -> ());
      close = (fun () -> ());
    }

let engine t = t.backend.engine ()

let observe t ev =
  if t.failed || t.released then Error "session is closed"
  else
    match t.backend.observe ev with
    | () -> Ok ()
    | exception Online.Inconsistent msg ->
        t.failed <- true;
        Error msg

let rec feed t = function
  | [] -> Ok ()
  | ev :: rest -> ( match observe t ev with Ok () -> feed t rest | Error _ as e -> e)

let sync t = if not t.released then t.backend.sync ()

let close t =
  if not t.released then begin
    t.released <- true;
    t.backend.close ()
  end

let summary t = Online.summary (engine t)

(* The pattern of the surviving history.  The engine keeps no checkpoint
   kinds or times: every checkpoint is [Basic] and its [seq] is its time,
   so the pattern matches the original in structure (and hence in every
   reachability/Min_gcp answer), not in timestamps. *)
let pattern t =
  let eng = engine t in
  match Online.orphan_messages eng with
  | _ :: _ as orphans ->
      Error
        (Printf.sprintf "stream is mid-rollback-cascade (orphaned messages %s)"
           (String.concat ", " (List.map string_of_int orphans)))
  | [] -> (
      let checkpoint seq = (Rdt_pattern.Types.Basic, None, seq) in
      match Rdt_pattern.History.to_pattern ~checkpoint (Online.history eng) with
      | p -> Ok p
      | exception (Online.Inconsistent e | Invalid_argument e) -> Error e)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

module Wire = struct
  let version = 1

  type query =
    | Rdt_so_far
    | Zcycle
    | Summary
    | Trackable of Rdt_pattern.Types.ckpt_id * Rdt_pattern.Types.ckpt_id
    | Min_gcp of Rdt_pattern.Types.ckpt_id list
    | Max_gcp of Rdt_pattern.Types.ckpt_id list

  type answer = Flag of bool | Stats of Online.summary | Cut of int array option
  type reject = Inconsistent | Unrecoverable | Protocol

  type request =
    | Hello of { version : int; stream : string; n : int }
    | Events of T.event list
    | Query of { id : int; query : query }
    | Sync
    | Bye

  type response =
    | Welcome of { version : int; stream : string; resumed : int }
    | Ack of { seen : int }
    | Answer of { id : int; answer : answer }
    | Failed of { id : int; error : string }
    | Rejected of { code : reject; error : string }
    | Goodbye of { seen : int; summary : Online.summary; orphans : int list }

  let exit_code_of_reject = function Inconsistent | Protocol -> 2 | Unrecoverable -> 3

  let batches k events =
    if k < 1 then invalid_arg "Session.Wire.batches: k must be >= 1";
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | ev :: rest -> split (k - 1) (ev :: acc) rest
    in
    let rec cut frames = function
      | [] -> List.rev frames
      | evs ->
          let frame, rest = split k [] evs in
          cut (frame :: frames) rest
    in
    cut [] events

  (* -- encoding ---------------------------------------------------- *)

  let escape = T.json_escape
  let ckpt_json (p, i) = Printf.sprintf "[%d,%d]" p i
  let set_json set = "[" ^ String.concat "," (List.map ckpt_json set) ^ "]"

  let query_json = function
    | Rdt_so_far -> {|{"q":"rdt-so-far"}|}
    | Zcycle -> {|{"q":"zcycle"}|}
    | Summary -> {|{"q":"summary"}|}
    | Trackable (a, b) ->
        Printf.sprintf {|{"q":"trackable","from":%s,"to":%s}|} (ckpt_json a) (ckpt_json b)
    | Min_gcp set -> Printf.sprintf {|{"q":"min-gcp","set":%s}|} (set_json set)
    | Max_gcp set -> Printf.sprintf {|{"q":"max-gcp","set":%s}|} (set_json set)

  let summary_json (s : Online.summary) =
    Printf.sprintf
      {|{"events":%d,"checkpoints":%d,"rdt":%b,"first_violation":%s,"zcycle":%b,"rebuilds":%d}|}
      s.events s.checkpoints s.rdt
      (match s.first_violation with None -> "null" | Some i -> string_of_int i)
      s.zcycle s.rebuilds

  let answer_json = function
    | Flag b -> Printf.sprintf {|{"a":"flag","v":%b}|} b
    | Stats s -> Printf.sprintf {|{"a":"stats","v":%s}|} (summary_json s)
    | Cut None -> {|{"a":"cut","v":null}|}
    | Cut (Some cut) ->
        Printf.sprintf {|{"a":"cut","v":[%s]}|}
          (String.concat "," (List.map string_of_int (Array.to_list cut)))

  let reject_name = function
    | Inconsistent -> "inconsistent"
    | Unrecoverable -> "unrecoverable"
    | Protocol -> "protocol"

  let encode_request = function
    | Hello { version; stream; n } ->
        Printf.sprintf {|{"req":"hello","v":%d,"stream":"%s","n":%d}|} version
          (escape stream) n
    | Events evs ->
        "{\"req\":\"events\",\"events\":["
        ^ String.concat "," (List.map T.encode evs)
        ^ "]}"
    | Query { id; query } ->
        Printf.sprintf {|{"req":"query","id":%d,"query":%s}|} id (query_json query)
    | Sync -> {|{"req":"sync"}|}
    | Bye -> {|{"req":"bye"}|}

  let encode_response = function
    | Welcome { version; stream; resumed } ->
        Printf.sprintf {|{"resp":"welcome","v":%d,"stream":"%s","resumed":%d}|} version
          (escape stream) resumed
    | Ack { seen } -> Printf.sprintf {|{"resp":"ack","seen":%d}|} seen
    | Answer { id; answer } ->
        Printf.sprintf {|{"resp":"answer","id":%d,"answer":%s}|} id (answer_json answer)
    | Failed { id; error } ->
        Printf.sprintf {|{"resp":"failed","id":%d,"error":"%s"}|} id (escape error)
    | Rejected { code; error } ->
        Printf.sprintf {|{"resp":"rejected","code":"%s","error":"%s"}|} (reject_name code)
          (escape error)
    | Goodbye { seen; summary; orphans } ->
        Printf.sprintf {|{"resp":"goodbye","seen":%d,"summary":%s,"orphans":[%s]}|} seen
          (summary_json summary)
          (String.concat "," (List.map string_of_int orphans))

  (* -- decoding ---------------------------------------------------- *)

  exception Bad of string

  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

  let field name j =
    match Json.member name j with Some v -> v | None -> bad "missing field %S" name

  let int_f name j = match field name j with Json.Int i -> i | _ -> bad "%S: not an int" name

  let str_f name j =
    match field name j with Json.String s -> s | _ -> bad "%S: not a string" name

  let bool_f name j =
    match field name j with Json.Bool b -> b | _ -> bad "%S: not a bool" name

  let ckpt_of_json = function
    | Json.Arr [ Json.Int p; Json.Int i ] -> (p, i)
    | _ -> bad "checkpoint id: expected [pid,index]"

  let set_f name j =
    match field name j with
    | Json.Arr items -> List.map ckpt_of_json items
    | _ -> bad "%S: not an array" name

  let query_of_json j =
    match str_f "q" j with
    | "rdt-so-far" -> Rdt_so_far
    | "zcycle" -> Zcycle
    | "summary" -> Summary
    | "trackable" -> Trackable (ckpt_of_json (field "from" j), ckpt_of_json (field "to" j))
    | "min-gcp" -> Min_gcp (set_f "set" j)
    | "max-gcp" -> Max_gcp (set_f "set" j)
    | q -> bad "unknown query %S" q

  let summary_of_json j : Online.summary =
    {
      events = int_f "events" j;
      checkpoints = int_f "checkpoints" j;
      rdt = bool_f "rdt" j;
      first_violation =
        (match field "first_violation" j with
        | Json.Null -> None
        | Json.Int i -> Some i
        | _ -> bad "\"first_violation\": not an int or null");
      zcycle = bool_f "zcycle" j;
      rebuilds = int_f "rebuilds" j;
    }

  let answer_of_json j =
    match str_f "a" j with
    | "flag" -> Flag (bool_f "v" j)
    | "stats" -> Stats (summary_of_json (field "v" j))
    | "cut" -> (
        match field "v" j with
        | Json.Null -> Cut None
        | Json.Arr items ->
            Cut
              (Some
                 (Array.of_list
                    (List.map
                       (function Json.Int i -> i | _ -> bad "cut: not an int")
                       items)))
        | _ -> bad "cut: not an array or null")
    | a -> bad "unknown answer %S" a

  let events_of_json j =
    match field "events" j with
    | Json.Arr items ->
        List.map
          (fun item -> match T.of_json item with Ok ev -> ev | Error e -> bad "bad event: %s" e)
          items
    | _ -> bad "\"events\": not an array"

  let int_list_f name j =
    match field name j with
    | Json.Arr items ->
        List.map (function Json.Int i -> i | _ -> bad "%S: not an int" name) items
    | _ -> bad "%S: not an array" name

  let reject_of_name = function
    | "inconsistent" -> Inconsistent
    | "unrecoverable" -> Unrecoverable
    | "protocol" -> Protocol
    | c -> bad "unknown reject code %S" c

  let decoding f line =
    match Json.parse line with
    | Error e -> Error e
    | Ok j -> ( match f j with v -> Ok v | exception Bad e -> Error e)

  let decode_request =
    decoding (fun j ->
        match str_f "req" j with
        | "hello" ->
            Hello { version = int_f "v" j; stream = str_f "stream" j; n = int_f "n" j }
        | "events" -> Events (events_of_json j)
        | "query" -> Query { id = int_f "id" j; query = query_of_json (field "query" j) }
        | "sync" -> Sync
        | "bye" -> Bye
        | r -> bad "unknown request %S" r)

  let decode_response =
    decoding (fun j ->
        match str_f "resp" j with
        | "welcome" ->
            Welcome { version = int_f "v" j; stream = str_f "stream" j; resumed = int_f "resumed" j }
        | "ack" -> Ack { seen = int_f "seen" j }
        | "answer" -> Answer { id = int_f "id" j; answer = answer_of_json (field "answer" j) }
        | "failed" -> Failed { id = int_f "id" j; error = str_f "error" j }
        | "rejected" ->
            Rejected { code = reject_of_name (str_f "code" j); error = str_f "error" j }
        | "goodbye" ->
            Goodbye
              {
                seen = int_f "seen" j;
                summary = summary_of_json (field "summary" j);
                orphans = int_list_f "orphans" j;
              }
        | r -> bad "unknown response %S" r)
end

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

module Frame = struct
  let max_payload = 16 * 1024 * 1024

  let encode payload =
    Printf.sprintf "%d %s\n" (String.length payload) payload

  type decoder = {
    buf : Buffer.t;
    mutable start : int;  (** consumed prefix of [buf] *)
    mutable poisoned : string option;
  }

  let decoder () = { buf = Buffer.create 4096; start = 0; poisoned = None }

  let buffered d = Buffer.length d.buf - d.start

  let compact d =
    if d.start > 0 && (d.start = Buffer.length d.buf || d.start > 1 lsl 16) then begin
      let rest = Buffer.sub d.buf d.start (Buffer.length d.buf - d.start) in
      Buffer.clear d.buf;
      Buffer.add_string d.buf rest;
      d.start <- 0
    end

  let feed d bytes ~off ~len = Buffer.add_subbytes d.buf bytes off len

  let poison d msg =
    d.poisoned <- Some msg;
    Error msg

  let next d =
    match d.poisoned with
    | Some msg -> Error msg
    | None ->
        let len = Buffer.length d.buf in
        let pos = ref d.start in
        let payload_len = ref 0 in
        let digits = ref 0 in
        let rec scan () =
          if !pos >= len then `More
          else
            match Buffer.nth d.buf !pos with
            | '0' .. '9' as c ->
                if !digits >= 9 then `Bad "frame length too long"
                else begin
                  payload_len := (!payload_len * 10) + (Char.code c - Char.code '0');
                  incr digits;
                  incr pos;
                  scan ()
                end
            | ' ' when !digits > 0 -> `Sized
            | c -> `Bad (Printf.sprintf "bad frame header byte %C" c)
        in
        (match scan () with
        | `More -> Ok None
        | `Bad msg -> poison d msg
        | `Sized ->
            if !payload_len > max_payload then
              poison d (Printf.sprintf "frame of %d bytes exceeds limit" !payload_len)
            else begin
              let body = !pos + 1 in
              if body + !payload_len + 1 > len then Ok None
              else if Buffer.nth d.buf (body + !payload_len) <> '\n' then
                poison d "frame missing trailing newline"
              else begin
                let payload = Buffer.sub d.buf body !payload_len in
                d.start <- body + !payload_len + 1;
                compact d;
                Ok (Some payload)
              end
            end)
end
