package trace

// NumKinds bounds the vocabulary for the external tests.
const NumKinds = numKinds
