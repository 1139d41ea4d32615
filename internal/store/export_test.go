package store

// AdversarialResults exposes the codec's edge-case fixtures to the
// external test package, which also needs conformancetest's fixtures
// (an import the internal package cannot make without a cycle).
var AdversarialResults = adversarialResults
