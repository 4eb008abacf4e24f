module T = Rdt_obs.Trace
module Codec = Rdt_obs.Codec
module W = Codec.Writer
module R = Codec.Reader

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type backend = {
  engine : Online.t;
  observe : T.event -> unit;
  sync : unit -> unit;
  close : unit -> unit;
}

(* [failed] (inconsistent stream) refuses further events but must not
   block [close] from releasing the backend's resources. *)
type t = { backend : backend; mutable failed : bool; mutable released : bool }

let of_backend backend = { backend; failed = false; released = false }

let ephemeral ~n () =
  let eng = Online.create ~n () in
  of_backend
    {
      engine = eng;
      observe = Online.observe eng;
      sync = (fun () -> ());
      close = (fun () -> ());
    }

let engine t = t.backend.engine

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
  let version = 2
  let max_events = 65_536

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

  (* -- binary codec ------------------------------------------------ *)

  (* A body is a tag byte for its constructor, then the fields in
     declaration order: ints zigzag varints, strings length prefixed,
     lists a count then their elements, a bool or an option's presence
     one byte, events [Codec.encode_event] records.  A version-1 body is
     a JSON object: its first byte, '{', is no tag. *)

  let int = W.zigzag
  let bool w b = W.byte w (Bool.to_int b)
  let list w f l = W.varint w (List.length l); List.iter (f w) l
  let ckpt w (p, i) = int w p; int w i

  let query w = function
    | Rdt_so_far -> W.byte w 0
    | Zcycle -> W.byte w 1
    | Summary -> W.byte w 2
    | Trackable (a, b) -> W.byte w 3; ckpt w a; ckpt w b
    | Min_gcp set -> W.byte w 4; list w ckpt set
    | Max_gcp set -> W.byte w 5; list w ckpt set

  let summary w (s : Online.summary) =
    int w s.events; int w s.checkpoints; bool w s.rdt;
    (match s.first_violation with None -> bool w false | Some i -> bool w true; int w i);
    bool w s.zcycle; int w s.rebuilds

  let answer w = function
    | Flag b -> W.byte w 0; bool w b
    | Stats s -> W.byte w 1; summary w s
    | Cut None -> W.byte w 2
    | Cut (Some cut) -> W.byte w 3; list w int (Array.to_list cut)

  let encoding f x = let w = W.create () in f w x; W.contents w

  let encode_request =
    encoding (fun w -> function
      | Hello { version; stream; n } -> W.byte w 0; int w version; W.string_ w stream; int w n
      | Events evs -> W.byte w 1; list w Codec.encode_event evs
      | Query { id; query = q } -> W.byte w 2; int w id; query w q
      | Sync -> W.byte w 3
      | Bye -> W.byte w 4)

  let encode_response =
    encoding (fun w -> function
      | Welcome { version; stream; resumed } ->
          W.byte w 0; int w version; W.string_ w stream; int w resumed
      | Ack { seen } -> W.byte w 1; int w seen
      | Answer { id; answer = a } -> W.byte w 2; int w id; answer w a
      | Failed { id; error } -> W.byte w 3; int w id; W.string_ w error
      | Rejected { code; error } ->
          W.byte w 4;
          W.byte w (match code with Inconsistent -> 0 | Unrecoverable -> 1 | Protocol -> 2);
          W.string_ w error
      | Goodbye { seen; summary = s; orphans } ->
          W.byte w 5; int w seen; summary w s; list w int orphans)

  (* Each field is read before the next: [let] fixes the order, which a
     constructor's arguments leave unspecified. *)

  let bad fmt = Printf.ksprintf (fun s -> raise (R.Short s)) fmt
  let read_int = R.zigzag
  let read_bool r = match R.byte r with 0 -> false | 1 -> true | b -> bad "bad boolean byte %d" b
  let read_list r f = List.init (R.count r) (fun _ -> f r)
  let read_ckpt r = let p = read_int r in (p, read_int r)

  let read_query r =
    match R.byte r with
    | 0 -> Rdt_so_far
    | 1 -> Zcycle
    | 2 -> Summary
    | 3 -> let a = read_ckpt r in Trackable (a, read_ckpt r)
    | 4 -> Min_gcp (read_list r read_ckpt)
    | 5 -> Max_gcp (read_list r read_ckpt)
    | t -> bad "unknown query tag %d" t

  let read_summary r : Online.summary =
    let events = read_int r in
    let checkpoints = read_int r in
    let rdt = read_bool r in
    let first_violation = if read_bool r then Some (read_int r) else None in
    let zcycle = read_bool r in
    { events; checkpoints; rdt; first_violation; zcycle; rebuilds = read_int r }

  let read_answer r =
    match R.byte r with
    | 0 -> Flag (read_bool r)
    | 1 -> Stats (read_summary r)
    | 2 -> Cut None
    | 3 -> Cut (Some (Array.of_list (read_list r read_int)))
    | t -> bad "unknown answer tag %d" t

  let read_request r =
    match R.byte r with
    | 0 ->
        let version = read_int r in
        let stream = R.string_ r in
        Hello { version; stream; n = read_int r }
    | 1 ->
        (* refused before any record is read: a frame's events are
           decoded whole, ahead of the server's backpressure *)
        let k = R.count r in
        if k > max_events then bad "%d events in one frame, above the bound %d" k max_events;
        Events (List.init k (fun _ -> Codec.read_event r))
    | 2 -> let id = read_int r in Query { id; query = read_query r }
    | 3 -> Sync
    | 4 -> Bye
    | t -> bad "unknown request tag %d" t

  let read_response r =
    match R.byte r with
    | 0 ->
        let version = read_int r in
        let stream = R.string_ r in
        Welcome { version; stream; resumed = read_int r }
    | 1 -> Ack { seen = read_int r }
    | 2 -> let id = read_int r in Answer { id; answer = read_answer r }
    | 3 -> let id = read_int r in Failed { id; error = R.string_ r }
    | 4 ->
        let code =
          match R.byte r with 0 -> Inconsistent | 1 -> Unrecoverable | 2 -> Protocol
          | c -> bad "unknown reject code %d" c
        in
        Rejected { code; error = R.string_ r }
    | 5 ->
        let seen = read_int r in
        let summary = read_summary r in
        Goodbye { seen; summary; orphans = read_list r read_int }
    | t -> bad "unknown response tag %d" t

  let decoding what read s =
    if String.starts_with ~prefix:"{" s then
      Error (Printf.sprintf "a version-1 (JSON) frame; this peer speaks version %d only" version)
    else Codec.decode ~what read s

  let decode_request s =
    match decoding "request" read_request s with
    | Error _ as e when String.starts_with ~prefix:"\000" s -> (
        (* a later version's hello is read up to its version, the first
           field: the rest may follow that version's layout *)
        match R.zigzag (R.of_string ~pos:1 s) with
        | v when v > version -> Ok (Hello { version = v; stream = ""; n = 0 })
        | _ | (exception R.Short _) -> e)
    | result -> result

  let decode_response = decoding "response" read_response
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
