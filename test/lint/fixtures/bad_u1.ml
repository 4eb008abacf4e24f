let unused x = x + 1
let only_tested x = x * 2
let used x = x - 1

module Aliased = struct
  let used x = x + 1
  let unused x = x + 2
end
