let all =
  [
    Rule_d1.rule;
    Rule_d2.rule;
    Rule_r1.rule;
    Rule_r2.rule;
    Rule_s1.rule;
    Rule_l1.rule;
    Rule_a1.rule;
    Rule_a2.rule;
    Rule_u1.rule;
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun (r : Rule.t) -> String.equal r.id id) all
