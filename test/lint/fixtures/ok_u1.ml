module Aliased = struct
  let f x = x + 1
end

module Included = struct
  let g x = x + 2
end

module Packed = struct
  let h x = x + 3
end
