module Ptypes = Rdt_pattern.Types

type event =
  | Meta of { n : int; protocol : string; env : string; seed : int; mode : string }
  | Send of { msg : int; src : int; dst : int; time : int }
  | Deliver of { msg : int; src : int; dst : int; time : int }
  | Internal of { pid : int; time : int }
  | Ckpt of {
      pid : int;
      index : int;
      kind : Ptypes.ckpt_kind;
      time : int;
      tdv : int array option;
      preds : string list;
    }
  | Retransmit of { src : int; dst : int; seq : int; attempt : int; time : int }
  | Drop of { src : int; dst : int; time : int }
  | Undeliverable of { msg : int; src : int; dst : int; time : int }
  | Rollback of { pid : int; to_index : int; time : int }
  | Replay of { msg : int; src : int; dst : int; time : int }
  | Verdict of { checker : string; rdt : bool }

let kind_name = function
  | Meta _ -> "meta"
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Internal _ -> "internal"
  | Ckpt _ -> "ckpt"
  | Retransmit _ -> "retransmit"
  | Drop _ -> "drop"
  | Undeliverable _ -> "undeliverable"
  | Rollback _ -> "rollback"
  | Replay _ -> "replay"
  | Verdict _ -> "verdict"

let kind_names =
  [
    "meta"; "send"; "deliver"; "internal"; "ckpt"; "retransmit"; "drop"; "undeliverable";
    "rollback"; "replay"; "verdict";
  ]

(* ------------------------------------------------------------------ *)
(* Recorders                                                           *)
(* ------------------------------------------------------------------ *)

type ring_state = { cap : int; buf : event option array; mutable head : int }
(* [head] is the slot of the next write; the ring holds the last
   [min emitted cap] events ending at [head - 1]. *)

type t = { sink : sink; mutable emitted : int }

and sink =
  | Null
  | Ring of ring_state
  | Chan of out_channel
  | Fun of (event -> unit)
  | Tee of t * t

let null = { sink = Null; emitted = 0 }

let rec on t =
  match t.sink with Null -> false | Tee (a, b) -> on a || on b | Ring _ | Chan _ | Fun _ -> true

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Trace.ring: capacity must be positive";
  { sink = Ring { cap = capacity; buf = Array.make capacity None; head = 0 }; emitted = 0 }

let to_channel oc = { sink = Chan oc; emitted = 0 }

let observer f = { sink = Fun f; emitted = 0 }

let tee a b = { sink = Tee (a, b); emitted = 0 }

(* ------------------------------------------------------------------ *)
(* JSONL encoding                                                      *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_escape = escape

let int_array_json a =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ "]"

let string_list_json l =
  "[" ^ String.concat "," (List.map (fun s -> "\"" ^ escape s ^ "\"") l) ^ "]"

let encode ev =
  match ev with
  | Meta { n; protocol; env; seed; mode } ->
      Printf.sprintf
        "{\"ev\":\"meta\",\"n\":%d,\"protocol\":\"%s\",\"env\":\"%s\",\"seed\":%d,\"mode\":\"%s\"}"
        n (escape protocol) (escape env) seed (escape mode)
  | Send { msg; src; dst; time } ->
      Printf.sprintf "{\"ev\":\"send\",\"msg\":%d,\"src\":%d,\"dst\":%d,\"t\":%d}" msg src dst time
  | Deliver { msg; src; dst; time } ->
      Printf.sprintf "{\"ev\":\"deliver\",\"msg\":%d,\"src\":%d,\"dst\":%d,\"t\":%d}" msg src dst
        time
  | Internal { pid; time } -> Printf.sprintf "{\"ev\":\"internal\",\"pid\":%d,\"t\":%d}" pid time
  | Ckpt { pid; index; kind; time; tdv; preds } ->
      let base =
        Printf.sprintf "{\"ev\":\"ckpt\",\"pid\":%d,\"index\":%d,\"kind\":\"%s\",\"t\":%d" pid
          index
          (Ptypes.ckpt_kind_to_string kind)
          time
      in
      let preds_part = if preds = [] then "" else ",\"preds\":" ^ string_list_json preds in
      let tdv_part = match tdv with None -> "" | Some a -> ",\"tdv\":" ^ int_array_json a in
      base ^ preds_part ^ tdv_part ^ "}"
  | Retransmit { src; dst; seq; attempt; time } ->
      Printf.sprintf
        "{\"ev\":\"retransmit\",\"src\":%d,\"dst\":%d,\"seq\":%d,\"attempt\":%d,\"t\":%d}" src dst
        seq attempt time
  | Drop { src; dst; time } ->
      Printf.sprintf "{\"ev\":\"drop\",\"src\":%d,\"dst\":%d,\"t\":%d}" src dst time
  | Undeliverable { msg; src; dst; time } ->
      Printf.sprintf "{\"ev\":\"undeliverable\",\"msg\":%d,\"src\":%d,\"dst\":%d,\"t\":%d}" msg src
        dst time
  | Rollback { pid; to_index; time } ->
      Printf.sprintf "{\"ev\":\"rollback\",\"pid\":%d,\"to_index\":%d,\"t\":%d}" pid to_index time
  | Replay { msg; src; dst; time } ->
      Printf.sprintf "{\"ev\":\"replay\",\"msg\":%d,\"src\":%d,\"dst\":%d,\"t\":%d}" msg src dst
        time
  | Verdict { checker; rdt } ->
      Printf.sprintf "{\"ev\":\"verdict\",\"checker\":\"%s\",\"rdt\":%b}" (escape checker) rdt

let rec emit t ev =
  match t.sink with
  | Null -> ()
  | Tee (a, b) ->
      emit a ev;
      emit b ev
  | Ring r ->
      r.buf.(r.head) <- Some ev;
      r.head <- (r.head + 1) mod r.cap;
      t.emitted <- t.emitted + 1
  | Chan oc ->
      output_string oc (encode ev);
      output_char oc '\n'
  | Fun f -> f ev

let rec events t =
  match t.sink with
  | Null | Chan _ | Fun _ -> []
  | Tee (a, b) -> events a @ events b
  | Ring r ->
      let kept = min t.emitted r.cap in
      let start = (r.head - kept + r.cap) mod r.cap in
      List.init kept (fun i ->
          match r.buf.((start + i) mod r.cap) with Some e -> e | None -> assert false)

(* ------------------------------------------------------------------ *)
(* JSONL decoding: a minimal JSON parser for the subset we emit.  The   *)
(* parser is exposed as [Json] so other layers (the fuzzer's scenario   *)
(* files, external tooling) can read structured artifacts without       *)
(* pulling in a JSON dependency.                                        *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse_exn (s : string) : t =
    let len = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      if !pos < len && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected %C" c)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= len then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              if !pos >= len then fail "dangling escape"
              else begin
                (match s.[!pos] with
                | '"' -> Buffer.add_char buf '"'
                | '\\' -> Buffer.add_char buf '\\'
                | '/' -> Buffer.add_char buf '/'
                | 'n' -> Buffer.add_char buf '\n'
                | 't' -> Buffer.add_char buf '\t'
                | 'r' -> Buffer.add_char buf '\r'
                | 'b' -> Buffer.add_char buf '\b'
                | 'f' -> Buffer.add_char buf '\012'
                | 'u' ->
                    if !pos + 4 >= len then fail "truncated \\u escape";
                    let hex = String.sub s (!pos + 1) 4 in
                    let code =
                      try int_of_string ("0x" ^ hex) with Failure _ -> fail "bad \\u escape"
                    in
                    (* traces only escape control characters, so the code
                       point is always in the single-byte range *)
                    if code < 0x80 then Buffer.add_char buf (Char.chr code)
                    else Buffer.add_string buf (Printf.sprintf "\\u%s" hex);
                    pos := !pos + 4
                | c -> fail (Printf.sprintf "bad escape %C" c));
                advance ();
                go ()
              end
          | c ->
              Buffer.add_char buf c;
              advance ();
              go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while !pos < len && is_num_char s.[!pos] do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" lit))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> fail "expected ',' or '}'"
            in
            members ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected ',' or ']'"
            in
            elements ();
            Arr (List.rev !items)
          end
      | Some 't' when !pos + 4 <= len && String.sub s !pos 4 = "true" ->
          pos := !pos + 4;
          Bool true
      | Some 'f' when !pos + 5 <= len && String.sub s !pos 5 = "false" ->
          pos := !pos + 5;
          Bool false
      | Some 'n' when !pos + 4 <= len && String.sub s !pos 4 = "null" ->
          pos := !pos + 4;
          Null
      | Some ('0' .. '9' | '-') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing characters";
    v

  let parse s = match parse_exn s with v -> Ok v | exception Parse_error e -> Error e

  let member name = function Obj o -> List.assoc_opt name o | _ -> None
end

let of_json j =
  let field obj name =
    match List.assoc_opt name obj with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let int_f obj name =
    match field obj name with
    | Ok (Json.Int i) -> Ok i
    | Ok _ -> Error (Printf.sprintf "field %S is not an integer" name)
    | Error e -> Error e
  in
  let str_f obj name =
    match field obj name with
    | Ok (Json.String s) -> Ok s
    | Ok _ -> Error (Printf.sprintf "field %S is not a string" name)
    | Error e -> Error e
  in
  let bool_f obj name =
    match field obj name with
    | Ok (Json.Bool b) -> Ok b
    | Ok _ -> Error (Printf.sprintf "field %S is not a boolean" name)
    | Error e -> Error e
  in
  let ( let* ) = Result.bind in
  match j with
  | Json.Obj obj -> (
      let* ev = str_f obj "ev" in
      match ev with
      | "meta" ->
          let* n = int_f obj "n" in
          let* protocol = str_f obj "protocol" in
          let* env = str_f obj "env" in
          let* seed = int_f obj "seed" in
          let* mode = str_f obj "mode" in
          Ok (Meta { n; protocol; env; seed; mode })
      | "send" | "deliver" | "undeliverable" | "replay" ->
          let* msg = int_f obj "msg" in
          let* src = int_f obj "src" in
          let* dst = int_f obj "dst" in
          let* time = int_f obj "t" in
          Ok
            (match ev with
            | "send" -> Send { msg; src; dst; time }
            | "deliver" -> Deliver { msg; src; dst; time }
            | "undeliverable" -> Undeliverable { msg; src; dst; time }
            | _ -> Replay { msg; src; dst; time })
      | "internal" ->
          let* pid = int_f obj "pid" in
          let* time = int_f obj "t" in
          Ok (Internal { pid; time })
      | "ckpt" ->
          let* pid = int_f obj "pid" in
          let* index = int_f obj "index" in
          let* kind_s = str_f obj "kind" in
          let* time = int_f obj "t" in
          let* kind =
            match kind_s with
            | "initial" -> Ok Ptypes.Initial
            | "basic" -> Ok Ptypes.Basic
            | "forced" -> Ok Ptypes.Forced
            | "final" -> Ok Ptypes.Final
            | k -> Error (Printf.sprintf "unknown checkpoint kind %S" k)
          in
          let* preds =
            match List.assoc_opt "preds" obj with
            | None -> Ok []
            | Some (Json.Arr items) ->
                List.fold_right
                  (fun item acc ->
                    let* acc = acc in
                    match item with
                    | Json.String s -> Ok (s :: acc)
                    | _ -> Error "non-string predicate name")
                  items (Ok [])
            | Some _ -> Error "field \"preds\" is not an array"
          in
          let* tdv =
            match List.assoc_opt "tdv" obj with
            | None -> Ok None
            | Some (Json.Arr items) ->
                let* l =
                  List.fold_right
                    (fun item acc ->
                      let* acc = acc in
                      match item with Json.Int i -> Ok (i :: acc) | _ -> Error "non-integer TDV entry")
                    items (Ok [])
                in
                Ok (Some (Array.of_list l))
            | Some _ -> Error "field \"tdv\" is not an array"
          in
          Ok (Ckpt { pid; index; kind; time; tdv; preds })
      | "retransmit" ->
          let* src = int_f obj "src" in
          let* dst = int_f obj "dst" in
          let* seq = int_f obj "seq" in
          let* attempt = int_f obj "attempt" in
          let* time = int_f obj "t" in
          Ok (Retransmit { src; dst; seq; attempt; time })
      | "drop" ->
          let* src = int_f obj "src" in
          let* dst = int_f obj "dst" in
          let* time = int_f obj "t" in
          Ok (Drop { src; dst; time })
      | "rollback" ->
          let* pid = int_f obj "pid" in
          let* to_index = int_f obj "to_index" in
          let* time = int_f obj "t" in
          Ok (Rollback { pid; to_index; time })
      | "verdict" ->
          let* checker = str_f obj "checker" in
          let* rdt = bool_f obj "rdt" in
          Ok (Verdict { checker; rdt })
      | k -> Error (Printf.sprintf "unknown event kind %S" k))
  | _ -> Error "not a JSON object"

let decode line = Result.bind (Json.parse line) of_json

let read_file path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines ->
      let rec go lineno acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
            if String.trim line = "" then go (lineno + 1) acc rest
            else (
              match decode line with
              | Ok ev -> go (lineno + 1) (ev :: acc) rest
              | Error e -> Error (Printf.sprintf "%s, line %d: %s" path lineno e))
      in
      go 1 [] lines
