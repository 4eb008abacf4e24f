type t = { mutable count : int; mutable mean : float; mutable m2 : float }

let create () = { count = 0; mean = 0.0; m2 = 0.0 }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let mean t = if t.count = 0 then 0.0 else t.mean

let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)

let ci95_half_width t =
  if t.count < 2 then 0.0 else 1.96 *. stddev t /. sqrt (float_of_int t.count)

let merge ~into:a b =
  if b.count > 0 then begin
    if a.count = 0 then begin
      a.count <- b.count;
      a.mean <- b.mean;
      a.m2 <- b.m2
    end
    else begin
      let na = float_of_int a.count and nb = float_of_int b.count in
      let delta = b.mean -. a.mean in
      let n = na +. nb in
      a.m2 <- a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n);
      a.mean <- a.mean +. (delta *. nb /. n);
      a.count <- a.count + b.count
    end
  end

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t
