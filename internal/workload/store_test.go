package workload

import (
	"math/bits"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// pointerFree fails t if typ holds, at any depth, a value the garbage
// collector must scan or trace: a pointer, slice, map, func, interface,
// string or channel.
func pointerFree(t *testing.T, what string, typ reflect.Type) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			pointerFree(t, what+"."+f.Name, f.Type)
		}
	case reflect.Array:
		pointerFree(t, what+"[]", typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Func, reflect.Interface, reflect.String, reflect.Chan:
		t.Errorf("%s is a %s (%s): the GC would scan every queued request", what, typ.Kind(), typ)
	}
}

// fieldType returns the type of the named field of struct type typ.
func fieldType(t *testing.T, typ reflect.Type, name string) reflect.Type {
	t.Helper()
	f, ok := typ.FieldByName(name)
	if !ok {
		t.Fatalf("%s has no field %s", typ, name)
	}
	return f.Type
}

// TestRequestsArePointerFree guards the request path against pointers: a
// Request, the element of an app's queue and a Store chunk's element hold
// none, so the garbage collector never scans a backlog and no queue
// operation pays a write barrier. Naming an app or a journey by pointer
// again fails here.
func TestRequestsArePointerFree(t *testing.T) {
	pointerFree(t, "Request", reflect.TypeOf(Request{}))
	buf := fieldType(t, fieldType(t, reflect.TypeOf(App{}), "q"), "buf")
	if buf.Kind() != reflect.Slice {
		t.Fatalf("App.q.buf is a %s, want a slice of handles", buf)
	}
	pointerFree(t, "App.q.buf[]", buf.Elem())
	chunks := fieldType(t, reflect.TypeOf(Store{}), "chunks")
	if chunks.Kind() != reflect.Slice || chunks.Elem().Kind() != reflect.Pointer || chunks.Elem().Elem().Kind() != reflect.Array {
		t.Fatalf("Store.chunks is a %s, want a slice of pointers to arrays", chunks)
	}
	if elem := chunks.Elem().Elem().Elem(); elem != reflect.TypeOf(Request{}) {
		t.Fatalf("a Store chunk holds %s, want Request", elem)
	}
}

// TestRequestIs32Bytes pins the request's layout: its app, its handle,
// and three times, two requests to a cache line. State only one scheduler
// model reads belongs in that model, keyed by the request's handle.
func TestRequestIs32Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size != 32 {
		t.Fatalf("a Request is %d bytes, want 32", size)
	}
}

// TestStoreRecyclesAndNeverMoves: a released handle is handed out again
// before the store grows, a released slot reads back as zero, and a
// *Request stays valid and unmoved while the store grows by many chunks.
func TestStoreRecyclesAndNeverMoves(t *testing.T) {
	var s Store
	a, b, c := s.alloc(), s.alloc(), s.alloc()
	if a.Handle() != 0 || b.Handle() != 1 || c.Handle() != 2 {
		t.Fatalf("fresh handles %d %d %d, want 0 1 2", a.Handle(), b.Handle(), c.Handle())
	}
	hb := b.Handle()
	b.Arrive, b.Service, b.Done = 5, 6, 7
	s.release(b)
	if *s.Get(hb) != (Request{}) {
		t.Fatalf("released slot reads %+v, want zero", *s.Get(hb))
	}
	if r := s.alloc(); r != b || r.Handle() != hb {
		t.Fatalf("alloc after a release got handle %d at %p, want the released %d at %p", r.Handle(), r, hb, b)
	}

	a.Arrive, a.Service, a.AppIdx = 11, 12, 3
	const grow = 64 * ChunkSize
	for i := 0; i < grow; i++ {
		s.alloc().Service = 1
	}
	if len(s.chunks) != 1+grow/ChunkSize {
		t.Fatalf("%d requests in %d chunks, want %d", 3+grow, len(s.chunks), 1+grow/ChunkSize)
	}
	if got := s.Get(a.Handle()); got != a || a.Arrive != 11 || a.Service != 12 || a.AppIdx != 3 {
		t.Fatalf("request 0 moved or changed as the store grew: %p %+v, was %p", got, *got, a)
	}
	for h := uint32(0); h < s.n; h++ {
		if r := s.Get(h); r.Handle() != h {
			t.Fatalf("slot %d holds handle %d", h, r.Handle())
		}
	}
}

// TestDeepBacklogAllocatesChunks: queuing a 100k-deep backlog allocates
// its requests ChunkSize at a time, plus the queue's doublings and the
// chunk table, not one object per request.
func TestDeepBacklogAllocatesChunks(t *testing.T) {
	const n = 100_000
	chunks := (n + ChunkSize - 1) / ChunkSize
	fifoGrowth := bits.Len(uint(n)) // rings of 8, 16, … past n
	// One store, its chunks and their table's doublings, the ring's
	// doublings.
	want := 1 + chunks + bits.Len(uint(chunks)) + 1 + fifoGrowth
	var app *App
	allocs := testing.AllocsPerRun(1, func() {
		app = NewLApp("mc", Memcached(), 0)
		for i := 0; i < n; i++ {
			app.Arrive(0, 1)
		}
	})
	allocs-- // the App
	allocs-- // its histogram
	if app.Len() != n {
		t.Fatalf("backlog holds %d requests, want %d", app.Len(), n)
	}
	if int(allocs) > want {
		t.Fatalf("a %d-deep backlog allocated %.0f times, want at most %d (%d chunks + growth)", n, allocs, want, chunks)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	app = NewLApp("mc", Memcached(), 0)
	for i := 0; i < n; i++ {
		app.Arrive(0, 1)
	}
	runtime.ReadMemStats(&after)
	ring := 1 << bits.Len(uint(n))
	limit := uint64(chunks)*uint64(unsafe.Sizeof([ChunkSize]Request{})) + // the chunks
		2*4*uint64(ring) + // every ring up to the last, 4-byte handles
		2*8*uint64(2*chunks) + // the chunk table's doublings
		4<<10 // the app, its histogram and the store
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("a %d-deep backlog allocated %d bytes, want at most %d", n, got, limit)
	}
}

// TestStoreReleaseAllocatesNothing: releasing requests threads their slots
// onto the free list in place, so a run whose releases outnumber its
// arrivals (a backlog draining, arrivals abandoned unserved) grows no
// free list. The slots come back last released, first issued, zeroed,
// and the store grows only once the list is empty.
func TestStoreReleaseAllocatesNothing(t *testing.T) {
	const runs, n = 4, 8 * ChunkSize
	// AllocsPerRun makes one unmeasured call first: each call releases
	// every request of a store of its own.
	stores := make([]*Store, runs+1)
	for i := range stores {
		stores[i] = new(Store)
		for j := 0; j < n; j++ {
			stores[i].alloc()
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := stores[next]
		next++
		for h := uint32(0); h < n; h++ {
			s.release(s.Get(h))
		}
	})
	if allocs != 0 {
		t.Fatalf("releasing %d requests allocated %.0f times, want 0", n, allocs)
	}
	s := stores[0]
	for h := uint32(n); h > 0; h-- {
		if r := s.alloc(); *r != (Request{h: h - 1}) {
			t.Fatalf("alloc after releasing every request got %+v, want the zeroed slot %d", *r, h-1)
		}
	}
	if r := s.alloc(); r.Handle() != n || len(s.chunks) != n/ChunkSize+1 {
		t.Fatalf("alloc with no free slot got handle %d in %d chunks, want %d in %d", r.Handle(), len(s.chunks), n, n/ChunkSize+1)
	}
}
