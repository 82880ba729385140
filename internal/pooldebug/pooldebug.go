// Package pooldebug gates the simulator's record-pool poisoning. The hot
// paths recycle their per-access records (dramcache transactions,
// mem.Request demands, the event kernel's wheel slots) through
// freelists; a stale reference to a released record would silently read
// or write the record's next tenant. Built with -tags pooldebug, every
// release poisons the record instead — sentinel line addresses, nil
// owner pointers, a panicking callback — so such a use panics or shows
// up as result drift rather than passing unnoticed:
//
//	go test -tags pooldebug -short ./internal/dramcache ./internal/system ./internal/experiments
//
// On is a constant, so the checks compile away in ordinary builds.
package pooldebug
