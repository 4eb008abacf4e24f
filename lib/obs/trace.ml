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
(* JSONL encoding: each event is written into a [Buffer], integers by  *)
(* hand, with no format string.                                        *)
(* ------------------------------------------------------------------ *)

let hex_digits = "0123456789abcdef"

let add_escaped b s =
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\t' -> Buffer.add_string b "\\t"
    | c when Char.code c < 0x20 ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex_digits.[Char.code c lsr 4];
        Buffer.add_char b hex_digits.[Char.code c land 15]
    | c -> Buffer.add_char b c
  done

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  add_escaped b s;
  Buffer.contents b

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

(* [key] is the field's separator, name and colon, e.g. [,"msg":] *)
let int_field b key v =
  Buffer.add_string b key;
  add_int b v

let string_field b key v =
  Buffer.add_string b key;
  Buffer.add_char b '"';
  add_escaped b v;
  Buffer.add_char b '"'

let add_event b ev =
  Buffer.add_string b "{\"ev\":\"";
  Buffer.add_string b (kind_name ev);
  Buffer.add_char b '"';
  (match ev with
  | Meta { n; protocol; env; seed; mode } ->
      int_field b ",\"n\":" n;
      string_field b ",\"protocol\":" protocol;
      string_field b ",\"env\":" env;
      int_field b ",\"seed\":" seed;
      string_field b ",\"mode\":" mode
  | Send { msg; src; dst; time }
  | Deliver { msg; src; dst; time }
  | Undeliverable { msg; src; dst; time }
  | Replay { msg; src; dst; time } ->
      int_field b ",\"msg\":" msg;
      int_field b ",\"src\":" src;
      int_field b ",\"dst\":" dst;
      int_field b ",\"t\":" time
  | Internal { pid; time } ->
      int_field b ",\"pid\":" pid;
      int_field b ",\"t\":" time
  | Ckpt { pid; index; kind; time; tdv; preds } ->
      int_field b ",\"pid\":" pid;
      int_field b ",\"index\":" index;
      string_field b ",\"kind\":" (Ptypes.ckpt_kind_to_string kind);
      int_field b ",\"t\":" time;
      if preds <> [] then begin
        Buffer.add_string b ",\"preds\":[";
        List.iteri
          (fun i p ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            add_escaped b p;
            Buffer.add_char b '"')
          preds;
        Buffer.add_char b ']'
      end;
      Option.iter
        (fun a ->
          Buffer.add_string b ",\"tdv\":[";
          Array.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char b ',';
              add_int b x)
            a;
          Buffer.add_char b ']')
        tdv
  | Retransmit { src; dst; seq; attempt; time } ->
      int_field b ",\"src\":" src;
      int_field b ",\"dst\":" dst;
      int_field b ",\"seq\":" seq;
      int_field b ",\"attempt\":" attempt;
      int_field b ",\"t\":" time
  | Drop { src; dst; time } ->
      int_field b ",\"src\":" src;
      int_field b ",\"dst\":" dst;
      int_field b ",\"t\":" time
  | Rollback { pid; to_index; time } ->
      int_field b ",\"pid\":" pid;
      int_field b ",\"to_index\":" to_index;
      int_field b ",\"t\":" time
  | Verdict { checker; rdt } ->
      string_field b ",\"checker\":" checker;
      Buffer.add_string b (if rdt then ",\"rdt\":true" else ",\"rdt\":false"));
  Buffer.add_char b '}'

let encode ev =
  let b = Buffer.create 96 in
  add_event b ev;
  Buffer.contents b

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
                    let is_hex = function
                      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                      | _ -> false
                    in
                    if not (String.for_all is_hex hex) then fail "bad \\u escape";
                    let code = int_of_string ("0x" ^ hex) in
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

  let field obj name =
    match member name obj with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)

  let typed what get obj name =
    Result.bind (field obj name) (fun v ->
        match get v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "field %S is not %s" name what))

  let int_f = typed "an integer" (function Int i -> Some i | _ -> None)
  let str_f = typed "a string" (function String s -> Some s | _ -> None)
  let bool_f = typed "a boolean" (function Bool b -> Some b | _ -> None)
end

let of_json j =
  let open Json in
  let ( let* ) = Result.bind in
  match j with
  | Obj _ as obj -> (
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
            match member "preds" obj with
            | None -> Ok []
            | Some (Arr items) ->
                List.fold_right
                  (fun item acc ->
                    let* acc = acc in
                    match item with
                    | String s -> Ok (s :: acc)
                    | _ -> Error "non-string predicate name")
                  items (Ok [])
            | Some _ -> Error "field \"preds\" is not an array"
          in
          let* tdv =
            match member "tdv" obj with
            | None -> Ok None
            | Some (Arr items) ->
                let* l =
                  List.fold_right
                    (fun item acc ->
                      let* acc = acc in
                      match item with Int i -> Ok (i :: acc) | _ -> Error "non-integer TDV entry")
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

(* ------------------------------------------------------------------ *)
(* JSONL decoding, the fast path: one pass over the line, reading each  *)
(* field straight into a per-domain scratch record, with no [Json.t].  *)
(* It accepts only plain tokens: known keys, each at most once, in any  *)
(* order; ASCII whitespace between tokens; strings without a backslash; *)
(* integers of at most 18 digits, which cannot overflow.  On anything   *)
(* else it raises [Not_plain] and the line goes to the general path,    *)
(* [Json.parse] then [of_json], so acceptance, values and error         *)
(* messages are the general path's by construction.                     *)
(* ------------------------------------------------------------------ *)

exception Not_plain

let not_plain () = raise_notrace Not_plain

(* What the value of a key is read as. *)
type value = V_int | V_string | V_tag | V_kind | V_tdv | V_preds | V_bool

(* Every key of every event kind; bit [k] of a key mask is key [k]. *)
let keys =
  [|
    ("ev", V_tag); ("n", V_int); ("protocol", V_string); ("env", V_string); ("seed", V_int);
    ("mode", V_string); ("msg", V_int); ("src", V_int); ("dst", V_int); ("t", V_int);
    ("pid", V_int); ("index", V_int); ("kind", V_kind); ("tdv", V_tdv); ("preds", V_preds);
    ("seq", V_int); ("attempt", V_int); ("to_index", V_int); ("checker", V_string);
    ("rdt", V_bool);
  |]

let key_values = Array.map snd keys

let key name =
  let rec find k = if String.equal (fst keys.(k)) name then k else find (k + 1) in
  find 0

let mask names = List.fold_left (fun m name -> m lor (1 lsl key name)) 0 names

let ev_tags = Array.of_list kind_names

(* The keys of each event kind after ["ev"], in [encode]'s order: the
   fields [of_json] reads.  All but ["preds"] and ["tdv"] are required.
   A known key that the kind does not read is read and ignored, as
   [of_json] ignores it. *)
let fields = function
  | "meta" -> [ "n"; "protocol"; "env"; "seed"; "mode" ]
  | "send" | "deliver" | "undeliverable" | "replay" -> [ "msg"; "src"; "dst"; "t" ]
  | "internal" -> [ "pid"; "t" ]
  | "ckpt" -> [ "pid"; "index"; "kind"; "t"; "preds"; "tdv" ]
  | "retransmit" -> [ "src"; "dst"; "seq"; "attempt"; "t" ]
  | "drop" -> [ "src"; "dst"; "t" ]
  | "rollback" -> [ "pid"; "to_index"; "t" ]
  | _ -> [ "checker"; "rdt" ]

(* by the index of the tag in [kind_names] *)
let required =
  Array.map
    (fun tag -> mask ("ev" :: List.filter (fun k -> k <> "preds" && k <> "tdv") (fields tag)))
    ev_tags

let k_ev = key "ev"

let ckpt_kinds = Ptypes.[| Initial; Basic; Forced; Final |]

(* An open-addressing table of literals: a token is found with one hash
   and, almost always, one comparison, without allocating. *)
type table = { lits : string array; slots : int array  (** a literal's index, or -1 *) }

let nslots = 64

let hash s pos len =
  ((5 * len) + (9 * Char.code (String.unsafe_get s pos))
  + (7 * Char.code (String.unsafe_get s (pos + len - 1))))
  land (nslots - 1)

let table lits =
  let slots = Array.make nslots (-1) in
  let rec place i h =
    if slots.(h) < 0 then slots.(h) <- i else place i ((h + 1) land (nslots - 1))
  in
  Array.iteri (fun i lit -> place i (hash lit 0 (String.length lit))) lits;
  { lits; slots }

let key_table = table (Array.map fst keys)
let tag_table = table ev_tags
let kind_table = table (Array.map Ptypes.ckpt_kind_to_string ckpt_kinds)

type reader = {
  mutable pos : int;
  mutable stop : int;
  mutable seen : int;  (** mask of the keys read so far *)
  vals : int array;
      (** per key: the integer, the literal's index, the boolean as 0/1,
          or the string's start *)
  ends : int array;  (** per string key: the string's end *)
  mutable tdv : int array;  (** the [tdv] entries, reused across lines *)
  mutable tdv_len : int;
  mutable preds : string list;  (** newest first *)
}

let scratch =
  Domain.DLS.new_key (fun () ->
      let nkeys = Array.length keys in
      {
        pos = 0;
        stop = 0;
        seen = 0;
        vals = Array.make nkeys 0;
        ends = Array.make nkeys 0;
        tdv = Array.make 64 0;
        tdv_len = 0;
        preds = [];
      })

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_more_ws r s =
  let i = ref (r.pos + 1) in
  while !i < r.stop && is_ws (String.unsafe_get s !i) do
    incr i
  done;
  r.pos <- !i

(* inlined, so the common case, no whitespace, costs no call *)
let[@inline] skip_ws r s =
  if r.pos < r.stop && is_ws (String.unsafe_get s r.pos) then skip_more_ws r s

let[@inline] at r s c = r.pos < r.stop && String.unsafe_get s r.pos = c

let[@inline] expect r s c = if at r s c then r.pos <- r.pos + 1 else not_plain ()

let string_end r s i =
  let i = ref i in
  while !i < r.stop && String.unsafe_get s !i <> '"' && String.unsafe_get s !i <> '\\' do
    incr i
  done;
  if !i < r.stop && String.unsafe_get s !i = '"' then !i else not_plain ()

(* A string without escapes: its start; [r.pos] is left past the closing
   quote, one past its end. *)
let plain_string r s =
  expect r s '"';
  let start = r.pos in
  r.pos <- string_end r s start + 1;
  start

(* [lit] equals [s.[pos .. pos + i]], compared from the end *)
let rec same s pos lit i =
  i < 0 || (String.unsafe_get s (pos + i) = String.unsafe_get lit i && same s pos lit (i - 1))

let rec probe t s pos len h =
  let i = Array.unsafe_get t.slots h in
  if i < 0 then not_plain ()
  else
    let lit = Array.unsafe_get t.lits i in
    if String.length lit = len && same s pos lit (len - 1) then i
    else probe t s pos len ((h + 1) land (nslots - 1))

(* The index in [t] of the string at [r.pos]. *)
let token r s t =
  let start = plain_string r s in
  let len = r.pos - 1 - start in
  if len = 0 then not_plain () else probe t s start len (hash s start len)

let literal r s lit =
  let len = String.length lit in
  r.pos + len <= r.stop && same s r.pos lit (len - 1)

let max_digits = 18

let int r s =
  let i = ref r.pos in
  let negative = at r s '-' in
  if negative then incr i;
  let start = !i and acc = ref 0 in
  while !i < r.stop && String.unsafe_get s !i >= '0' && String.unsafe_get s !i <= '9' do
    acc := (10 * !acc) + Char.code (String.unsafe_get s !i) - 48;
    incr i
  done;
  (* a number the general parser reads on, with [-+.eE], fails the
     separator expected next *)
  if !i = start || !i - start > max_digits then not_plain ();
  r.pos <- !i;
  if negative then - !acc else !acc

let rec tdv_entries r s i =
  if i = Array.length r.tdv then begin
    let grown = Array.make (2 * i) 0 in
    Array.blit r.tdv 0 grown 0 i;
    r.tdv <- grown
  end;
  r.tdv.(i) <- int r s;
  skip_ws r s;
  if at r s ',' then begin
    r.pos <- r.pos + 1;
    skip_ws r s;
    tdv_entries r s (i + 1)
  end
  else begin
    expect r s ']';
    r.tdv_len <- i + 1
  end

let rec pred_entries r s =
  let start = plain_string r s in
  r.preds <- String.sub s start (r.pos - 1 - start) :: r.preds;
  skip_ws r s;
  if at r s ',' then begin
    r.pos <- r.pos + 1;
    skip_ws r s;
    pred_entries r s
  end
  else expect r s ']'

(* [entries] reads a non-empty array's entries and closing bracket. *)
let array r s entries =
  expect r s '[';
  skip_ws r s;
  if at r s ']' then r.pos <- r.pos + 1 else entries r s

let value r s k =
  match Array.unsafe_get key_values k with
  | V_int -> r.vals.(k) <- int r s
  | V_string ->
      r.vals.(k) <- plain_string r s;
      r.ends.(k) <- r.pos - 1
  | V_tag -> r.vals.(k) <- token r s tag_table
  | V_kind -> r.vals.(k) <- token r s kind_table
  | V_tdv -> array r s (fun r s -> tdv_entries r s 0)
  | V_preds -> array r s pred_entries
  | V_bool ->
      if literal r s "true" then begin
        r.pos <- r.pos + 4;
        r.vals.(k) <- 1
      end
      else if literal r s "false" then begin
        r.pos <- r.pos + 5;
        r.vals.(k) <- 0
      end
      else not_plain ()

let rec members r s =
  skip_ws r s;
  let k = token r s key_table in
  let bit = 1 lsl k in
  if r.seen land bit <> 0 then not_plain ();
  r.seen <- r.seen lor bit;
  skip_ws r s;
  expect r s ':';
  skip_ws r s;
  value r s k;
  skip_ws r s;
  if at r s ',' then begin
    r.pos <- r.pos + 1;
    members r s
  end
  else expect r s '}'

let k_n = key "n"
and k_protocol = key "protocol"
and k_env = key "env"
and k_seed = key "seed"
and k_mode = key "mode"
and k_msg = key "msg"
and k_src = key "src"
and k_dst = key "dst"
and k_t = key "t"
and k_pid = key "pid"
and k_index = key "index"
and k_kind = key "kind"
and k_tdv = key "tdv"
and k_seq = key "seq"
and k_attempt = key "attempt"
and k_to_index = key "to_index"
and k_checker = key "checker"
and k_rdt = key "rdt"

let sub r s k = String.sub s r.vals.(k) (r.ends.(k) - r.vals.(k))

let event r s =
  if r.seen land (1 lsl k_ev) = 0 then not_plain ();
  let code = r.vals.(k_ev) in
  let req = required.(code) in
  if r.seen land req <> req then not_plain ();
  let v = r.vals in
  match ev_tags.(code) with
  | "meta" ->
      Meta
        {
          n = v.(k_n);
          protocol = sub r s k_protocol;
          env = sub r s k_env;
          seed = v.(k_seed);
          mode = sub r s k_mode;
        }
  | "send" -> Send { msg = v.(k_msg); src = v.(k_src); dst = v.(k_dst); time = v.(k_t) }
  | "deliver" -> Deliver { msg = v.(k_msg); src = v.(k_src); dst = v.(k_dst); time = v.(k_t) }
  | "internal" -> Internal { pid = v.(k_pid); time = v.(k_t) }
  | "ckpt" ->
      let tdv =
        if r.seen land (1 lsl k_tdv) = 0 then None else Some (Array.sub r.tdv 0 r.tdv_len)
      in
      Ckpt
        {
          pid = v.(k_pid);
          index = v.(k_index);
          kind = ckpt_kinds.(v.(k_kind));
          time = v.(k_t);
          tdv;
          preds = List.rev r.preds;
        }
  | "retransmit" ->
      Retransmit
        {
          src = v.(k_src);
          dst = v.(k_dst);
          seq = v.(k_seq);
          attempt = v.(k_attempt);
          time = v.(k_t);
        }
  | "drop" -> Drop { src = v.(k_src); dst = v.(k_dst); time = v.(k_t) }
  | "undeliverable" ->
      Undeliverable { msg = v.(k_msg); src = v.(k_src); dst = v.(k_dst); time = v.(k_t) }
  | "rollback" -> Rollback { pid = v.(k_pid); to_index = v.(k_to_index); time = v.(k_t) }
  | "replay" -> Replay { msg = v.(k_msg); src = v.(k_src); dst = v.(k_dst); time = v.(k_t) }
  | _ -> Verdict { checker = sub r s k_checker; rdt = v.(k_rdt) = 1 }

let read_plain s ~pos ~len =
  let r = Domain.DLS.get scratch in
  r.pos <- pos;
  r.stop <- pos + len;
  r.seen <- 0;
  r.tdv_len <- 0;
  r.preds <- [];
  skip_ws r s;
  expect r s '{';
  members r s;
  skip_ws r s;
  if r.pos <> r.stop then not_plain ();
  event r s

let decode_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Trace.decode_sub";
  match read_plain s ~pos ~len with
  | ev -> Ok ev
  | exception Not_plain ->
      let line = if pos = 0 && len = String.length s then s else String.sub s pos len in
      Result.bind (Json.parse line) of_json

let decode line = decode_sub line ~pos:0 ~len:(String.length line)

(* [String.trim]'s whitespace: a line of only these is blank. *)
let rec blank b i stop =
  i >= stop
  || (match Bytes.unsafe_get b i with ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false)
     && blank b (i + 1) stop

let rec line_end b i stop =
  if i < stop && Bytes.unsafe_get b i <> '\n' then line_end b (i + 1) stop else i

(* The buffer is seen as a string only for the decode, which copies what
   it keeps and returns before the buffer is written again. *)
let decode_line path lineno buf pos stop acc =
  if blank buf pos stop then Ok acc
  else
    match decode_sub (Bytes.unsafe_to_string buf) ~pos ~len:(stop - pos) with
    | Ok ev -> Ok (ev :: acc)
    | Error msg -> Error (Printf.sprintf "%s, line %d: %s" path lineno msg)

(* The file is read once, in blocks, into one buffer that grows only for
   a line longer than it, and each line is decoded where it lies.  A
   buffer the size of the file would be allocated outside the GC's pools
   on every read and raise the peak RSS of a process that reads traces
   repeatedly. *)
let read_file path =
  let read ic =
    let rec go buf lineno start filled acc =
      let e = line_end buf start filled in
      if e < filled then
        match decode_line path lineno buf start e acc with
        | Ok acc -> go buf (lineno + 1) (e + 1) filled acc
        | Error _ as err -> err
      else begin
        let rest = filled - start in
        let buf' = if rest = Bytes.length buf then Bytes.create (2 * rest) else buf in
        Bytes.blit buf start buf' 0 rest;
        match input ic buf' rest (Bytes.length buf' - rest) with
        | 0 -> Result.map List.rev (decode_line path lineno buf' 0 rest acc)
        | n -> go buf' lineno 0 (rest + n) acc
      end
    in
    go (Bytes.create 65536) 1 0 0 []
  in
  match In_channel.with_open_text path read with exception Sys_error e -> Error e | r -> r
