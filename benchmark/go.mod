// The benchmark is a module of its own so it builds from its own build
// file; the module path sits under "relm/" so it may import relm/internal.
module relm/benchmark

go 1.24

require relm v0.0.0

replace relm => ../
