module P = Rdt_pattern.Pattern
module B = Naive.Logged

type fig1 = {
  pattern : P.t;
  m1 : int;
  m2 : int;
  m3 : int;
  m4 : int;
  m5 : int;
  m6 : int;
  m7 : int;
  i : int;
  j : int;
  k : int;
}

let figure1_logged () =
  let i = 0 and j = 1 and k = 2 in
  let b = B.create ~n:3 in
  (* I_{i,1}: send m1 *)
  let m1 = B.send b ~src:i ~dst:j in
  ignore (B.checkpoint b i) (* C_{i,1} *);
  (* I_{j,1}: recv m1, send m2, recv m3  (send m2 precedes recv m3: the
     junction of [m3; m2] is non-causal) *)
  B.recv b m1;
  let m2 = B.send b ~src:j ~dst:i in
  (* I_{k,1}: send m3 *)
  let m3 = B.send b ~src:k ~dst:j in
  ignore (B.checkpoint b k) (* C_{k,1} *);
  B.recv b m3;
  ignore (B.checkpoint b j) (* C_{j,1} *);
  (* I_{i,2}: recv m2 *)
  B.recv b m2;
  ignore (B.checkpoint b i) (* C_{i,2} *);
  (* I_{j,2}: send m4, recv m5, send m6 ([m5; m4] non-causal, [m5; m6]
     causal sibling) *)
  let m4 = B.send b ~src:j ~dst:k in
  (* I_{i,3}: send m5 *)
  let m5 = B.send b ~src:i ~dst:j in
  ignore (B.checkpoint b i) (* C_{i,3} *);
  B.recv b m5;
  let m6 = B.send b ~src:j ~dst:k in
  ignore (B.checkpoint b j) (* C_{j,2} *);
  (* I_{k,2}: recv m4, recv m6, send m7 ([m4; m7] causal) *)
  B.recv b m4;
  B.recv b m6;
  let m7 = B.send b ~src:k ~dst:j in
  ignore (B.checkpoint b k) (* C_{k,2} *);
  (* I_{j,3}: recv m7 *)
  B.recv b m7;
  ignore (B.checkpoint b j) (* C_{j,3} *);
  ignore (B.checkpoint b k) (* C_{k,3} *);
  let pattern, gseqs = B.finish b in
  ({ pattern; m1; m2; m3; m4; m5; m6; m7; i; j; k }, gseqs)

let figure1 () = fst (figure1_logged ())

let two_crossing_logged () =
  let b = B.create ~n:2 in
  let ma = B.send b ~src:0 ~dst:1 in
  let mb = B.send b ~src:1 ~dst:0 in
  B.recv b ma;
  B.recv b mb;
  ignore (B.checkpoint b 0) (* C_{0,1} *);
  ignore (B.checkpoint b 1) (* C_{1,1} *);
  B.finish b

(* The textbook Z-cycle: m2 is sent by P_0 in I_{0,1} and delivered to P_1
   before C_{1,1}; m1 is sent by P_1 after C_{1,1} and delivered to P_0 in
   I_{0,1}, *after* the send of m2.  The chain [m1; m2] leaves C_{1,1} and
   returns before it. *)
let zcycle_fixture_logged () =
  let b = B.create ~n:2 in
  let m2 = B.send b ~src:0 ~dst:1 in
  B.recv b m2;
  ignore (B.checkpoint b 1) (* C_{1,1} *);
  let m1 = B.send b ~src:1 ~dst:0 in
  B.recv b m1;
  ignore (B.checkpoint b 0) (* C_{0,1} *);
  B.finish b

(* Found by random search (generator seed 276), hand-encoded: every
   non-causal *pair* of messages is causally doubled, yet a longer
   non-causal chain is not — RDT fails.  Demonstrates that the doubling
   characterization needs the full causal prefix (CM-paths), not just
   adjacent pairs. *)
let pairwise_insufficient_logged () =
  let b = B.create ~n:4 in
  let m1 = B.send b ~src:0 ~dst:3 in
  let m0 = B.send b ~src:1 ~dst:2 in
  ignore (B.checkpoint b 2) (* C_{2,1} *);
  B.recv b m0;
  let m2 = B.send b ~src:1 ~dst:3 in
  B.recv b m1;
  B.recv b m2;
  let m3 = B.send b ~src:3 ~dst:0 in
  B.recv b m3;
  let m4 = B.send b ~src:2 ~dst:1 in
  B.recv b m4;
  let m5 = B.send b ~src:0 ~dst:3 in
  B.recv b m5;
  let m6 = B.send b ~src:3 ~dst:0 in
  let m7 = B.send b ~src:1 ~dst:3 in
  B.recv b m6;
  B.recv b m7;
  B.finish b

let causal_ping_pong_logged () =
  let b = B.create ~n:2 in
  let rec exchange rounds =
    if rounds > 0 then begin
      let req = B.send b ~src:0 ~dst:1 in
      B.recv b req;
      let rep = B.send b ~src:1 ~dst:0 in
      B.recv b rep;
      ignore (B.checkpoint b 0);
      ignore (B.checkpoint b 1);
      exchange (rounds - 1)
    end
  in
  exchange 3;
  B.finish b

let two_crossing () = fst (two_crossing_logged ())

let zcycle_fixture () = fst (zcycle_fixture_logged ())

let pairwise_insufficient () = fst (pairwise_insufficient_logged ())

let causal_ping_pong () = fst (causal_ping_pong_logged ())

let logged () =
  let fx, gseqs = figure1_logged () in
  [ ("figure 1", fx.pattern, gseqs) ]
  @ List.map
      (fun (name, f) ->
        let pat, gseqs = f () in
        (name, pat, gseqs))
      [
        ("two crossing", two_crossing_logged);
        ("z-cycle", zcycle_fixture_logged);
        ("pairwise insufficient", pairwise_insufficient_logged);
        ("causal ping-pong", causal_ping_pong_logged);
      ]
