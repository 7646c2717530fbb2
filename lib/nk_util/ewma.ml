type t = { alpha : float; mutable avg : float; mutable initialized : bool }

let create ~alpha =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha out of (0,1]";
  { alpha; avg = 0.0; initialized = false }

let update t x =
  if t.initialized then t.avg <- (t.alpha *. x) +. ((1.0 -. t.alpha) *. t.avg)
  else begin
    t.avg <- x;
    t.initialized <- true
  end;
  t.avg

let value t = t.avg
