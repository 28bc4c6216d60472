// The benchmark is a module of its own so it builds from its own directory
// (go build inside bench/); the module path sits under the root module's so
// the traced run may import threatraptor/internal/... packages.
module threatraptor/bench

go 1.23

require threatraptor v0.0.0

replace threatraptor => ../
