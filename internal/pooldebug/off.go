//go:build !pooldebug

package pooldebug

// On reports whether released pooled records are poisoned.
const On = false
