// The benchmark is a module of its own so the repository's build and
// tier-1 tests never depend on it; the shared "reis/" path prefix is
// what lets it import reis/internal/... from outside the root module.
module reis/benchmark

go 1.24

require reis v0.0.0

replace reis => ../
