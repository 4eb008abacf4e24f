type params = { retx_timeout : int; backoff : float; jitter : int; max_retx : int }

let default_params = { retx_timeout = 250; backoff = 2.0; jitter = 20; max_retx = 25 }

let validate_params p =
  if p.retx_timeout < 1 then Error "retx_timeout must be >= 1"
  else if p.backoff < 1.0 then Error "backoff must be >= 1.0"
  else if p.jitter < 0 then Error "jitter must be >= 0"
  else if p.max_retx < 0 then Error "max_retx must be >= 0 (finite, so runs terminate)"
  else Ok ()

type wire =
  | Data of { src : int; dst : int; seq : int }
  | Ack of { src : int; dst : int; cum : int }
  | Retx_timer of { src : int; dst : int; seq : int }

type 'a emit =
  | Deliver of { src : int; dst : int; msg : 'a }
  | Wire of { at : int; wire : wire }
  | Undeliverable of { src : int; dst : int; msg : 'a }

type notice =
  | N_drop of { src : int; dst : int; time : int }
  | N_retransmit of { src : int; dst : int; seq : int; attempt : int; time : int }

type 'a entry = { payload : 'a; mutable retx : int }

type 'a link = {
  (* sender side *)
  mutable next_seq : int;
  mutable cum_acked : int; (* every seq < cum_acked is settled at the sender *)
  unacked : (int, 'a entry) Hashtbl.t;
  (* receiver side *)
  mutable expected : int; (* next seq to deliver in order *)
  buffer : (int, 'a) Hashtbl.t; (* out-of-order arrivals awaiting the gap *)
  abandoned : (int, unit) Hashtbl.t; (* seqs the sender gave up on *)
}

type stats = {
  accepted : int;
  delivered : int;
  undeliverable : int;
  data_packets : int;
  retransmissions : int;
  ack_packets : int;
  packets_dropped : int;
  duplicated : int;
  duplicates_suppressed : int;
  reordered : int;
}

type 'a t = {
  n : int;
  params : params;
  faults : Faults.spec;
  channel : Channel.spec;
  rng : Rng.t;
  notify : notice -> unit;
  links : (int, 'a link) Hashtbl.t; (* keyed src * n + dst; allocated per live link *)
  mutable unacked_total : int; (* maintained at every unacked add/settle site *)
  mutable accepted : int;
  mutable delivered : int;
  mutable undeliverable : int;
  mutable data_packets : int;
  mutable retransmissions : int;
  mutable ack_packets : int;
  mutable packets_dropped : int;
  mutable duplicated : int;
  mutable duplicates_suppressed : int;
  mutable reordered : int;
}

let create ?(notify = fun (_ : notice) -> ()) ~n ~params ~faults ~channel ~rng () =
  (match validate_params params with
  | Ok () -> ()
  | Error e -> invalid_arg ("Transport.create: " ^ e));
  if n < 1 then invalid_arg "Transport.create: n must be >= 1";
  {
    n;
    params;
    faults;
    channel;
    rng;
    notify;
    (* no per-pair state up front: n = 10^4 endpoints with 100 live links
       must cost O(links), not O(n^2) — link records appear on first use *)
    links = Hashtbl.create 64;
    unacked_total = 0;
    accepted = 0;
    delivered = 0;
    undeliverable = 0;
    data_packets = 0;
    retransmissions = 0;
    ack_packets = 0;
    packets_dropped = 0;
    duplicated = 0;
    duplicates_suppressed = 0;
    reordered = 0;
  }

let link t src dst =
  let key = (src * t.n) + dst in
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
      let l =
        {
          next_seq = 0;
          cum_acked = 0;
          unacked = Hashtbl.create 8;
          expected = 0;
          buffer = Hashtbl.create 8;
          abandoned = Hashtbl.create 2;
        }
      in
      Hashtbl.add t.links key l;
      l

let live_links t = Hashtbl.length t.links

(* Timeout before retransmission number [k+1]: exponential backoff from the
   base timeout, capped at 32x so healing partitions are re-probed within a
   bounded interval.  The factor is capped before it multiplies: past 2^62
   an uncapped product would overflow [int_of_float]. *)
let rto p k =
  let f = Float.min (p.backoff ** float_of_int k) 32.0 in
  max 1 (int_of_float (float_of_int p.retx_timeout *. f))

let jitter p rng = if p.jitter = 0 then 0 else Rng.int rng (p.jitter + 1)

(* One transmission of [wire] from [src] to [dst] through the faulty
   network: an active partition silences the attempt; otherwise the packet
   is possibly duplicated, and each copy is independently dropped, delayed
   by the channel distribution, and possibly held back by an adversarial
   reordering delay.  Surviving copies are appended to [acc] (reversed). *)
let through_network t ~now ~src ~dst wire acc =
  if Faults.cuts t.faults ~time:now ~src ~dst then begin
    t.packets_dropped <- t.packets_dropped + 1;
    t.notify (N_drop { src; dst; time = now })
  end
  else begin
    let copies =
      if t.faults.Faults.dup > 0.0 && Rng.bernoulli t.rng t.faults.Faults.dup then begin
        t.duplicated <- t.duplicated + 1;
        2
      end
      else 1
    in
    for _ = 1 to copies do
      if t.faults.Faults.drop > 0.0 && Rng.bernoulli t.rng t.faults.Faults.drop then begin
        t.packets_dropped <- t.packets_dropped + 1;
        t.notify (N_drop { src; dst; time = now })
      end
      else begin
        let delay = Channel.sample t.rng t.channel in
        let extra =
          if t.faults.Faults.reorder > 0.0 && Rng.bernoulli t.rng t.faults.Faults.reorder
          then begin
            t.reordered <- t.reordered + 1;
            Rng.int_in t.rng 1 t.faults.Faults.reorder_window
          end
          else 0
        in
        acc := Wire { at = now + delay + extra; wire } :: !acc
      end
    done
  end

(* Deliver every in-order message available at the receiver of [l],
   skipping over abandoned gaps. *)
let flush t ~src ~dst l acc =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt l.buffer l.expected with
    | Some payload ->
        Hashtbl.remove l.buffer l.expected;
        l.expected <- l.expected + 1;
        t.delivered <- t.delivered + 1;
        acc := Deliver { src; dst; msg = payload } :: !acc
    | None ->
        if Hashtbl.mem l.abandoned l.expected then begin
          Hashtbl.remove l.abandoned l.expected;
          l.expected <- l.expected + 1
        end
        else continue := false
  done

let send_ack t ~now ~src ~dst l acc =
  t.ack_packets <- t.ack_packets + 1;
  (* the acknowledgement travels the reverse direction *)
  through_network t ~now ~src:dst ~dst:src (Ack { src; dst; cum = l.expected }) acc

let send t ~now ~src ~dst msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Transport.send: pid out of range";
  if src = dst then invalid_arg "Transport.send: src = dst";
  let l = link t src dst in
  let seq = l.next_seq in
  l.next_seq <- seq + 1;
  Hashtbl.replace l.unacked seq { payload = msg; retx = 0 };
  t.unacked_total <- t.unacked_total + 1;
  t.accepted <- t.accepted + 1;
  t.data_packets <- t.data_packets + 1;
  let acc = ref [] in
  through_network t ~now ~src ~dst (Data { src; dst; seq }) acc;
  acc :=
    Wire { at = now + rto t.params 0 + jitter t.params t.rng; wire = Retx_timer { src; dst; seq } }
    :: !acc;
  List.rev !acc

let handle t ~now wire =
  match wire with
  | Data { src; dst; seq } ->
      let l = link t src dst in
      if seq < l.expected || Hashtbl.mem l.buffer seq || Hashtbl.mem l.abandoned seq then begin
        (* redundant copy (already delivered, already buffered, or a stray
           copy of an abandoned message): discard, but refresh the ack so a
           sender whose acks were lost stops retransmitting *)
        t.duplicates_suppressed <- t.duplicates_suppressed + 1;
        let acc = ref [] in
        send_ack t ~now ~src ~dst l acc;
        List.rev !acc
      end
      else begin
        (* first arrival of this seq; the payload lives in the sender-side
           entry, which must still exist: the cumulative ack that would have
           removed it implies the receiver had already advanced past [seq] *)
        let payload =
          match Hashtbl.find_opt l.unacked seq with
          | Some e -> e.payload
          | None -> assert false
        in
        Hashtbl.replace l.buffer seq payload;
        let acc = ref [] in
        flush t ~src ~dst l acc;
        send_ack t ~now ~src ~dst l acc;
        List.rev !acc
      end
  | Ack { src; dst; cum } ->
      let l = link t src dst in
      (* cumulative: settle every seq < cum (counting up keeps the removal
         order deterministic); stale acks are no-ops *)
      while l.cum_acked < cum do
        (* an abandoned seq is already gone from [unacked] — only settle
           the in-flight counter for entries actually removed *)
        if Hashtbl.mem l.unacked l.cum_acked then begin
          Hashtbl.remove l.unacked l.cum_acked;
          t.unacked_total <- t.unacked_total - 1
        end;
        l.cum_acked <- l.cum_acked + 1
      done;
      []
  | Retx_timer { src; dst; seq } -> (
      let l = link t src dst in
      match Hashtbl.find_opt l.unacked seq with
      | None -> [] (* settled: acknowledged (or already abandoned) *)
      | Some e ->
          if e.retx >= t.params.max_retx then
            if seq < l.expected || Hashtbl.mem l.buffer seq then begin
              (* the receiver does have it — only the acknowledgements were
                 lost; the simulation is omniscient, so settle silently
                 rather than double-report a delivered message *)
              Hashtbl.remove l.unacked seq;
              t.unacked_total <- t.unacked_total - 1;
              []
            end
            else begin
              Hashtbl.remove l.unacked seq;
              t.unacked_total <- t.unacked_total - 1;
              Hashtbl.replace l.abandoned seq ();
              t.undeliverable <- t.undeliverable + 1;
              let acc = ref [ Undeliverable { src; dst; msg = e.payload } ] in
              (* the gap is now permanent: let buffered successors through *)
              flush t ~src ~dst l acc;
              List.rev !acc
            end
          else begin
            e.retx <- e.retx + 1;
            t.retransmissions <- t.retransmissions + 1;
            t.data_packets <- t.data_packets + 1;
            t.notify (N_retransmit { src; dst; seq; attempt = e.retx; time = now });
            let acc = ref [] in
            through_network t ~now ~src ~dst (Data { src; dst; seq }) acc;
            acc :=
              Wire
                {
                  at = now + rto t.params e.retx + jitter t.params t.rng;
                  wire = Retx_timer { src; dst; seq };
                }
              :: !acc;
            List.rev !acc
          end)

let in_flight t = t.unacked_total

let stats t =
  {
    accepted = t.accepted;
    delivered = t.delivered;
    undeliverable = t.undeliverable;
    data_packets = t.data_packets;
    retransmissions = t.retransmissions;
    ack_packets = t.ack_packets;
    packets_dropped = t.packets_dropped;
    duplicated = t.duplicated;
    duplicates_suppressed = t.duplicates_suppressed;
    reordered = t.reordered;
  }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "transport: %d msgs (%d delivered, %d undeliverable), %d data pkts (%d retx), %d acks, %d \
     dropped, %d duplicated, %d dup-suppressed, %d reordered"
    s.accepted s.delivered s.undeliverable s.data_packets s.retransmissions s.ack_packets
    s.packets_dropped s.duplicated s.duplicates_suppressed s.reordered
