package uproc

import "testing"

func TestMigrateBetweenCoreFIFOs(t *testing.T) {
	d := newDomain(t, 2)
	u, err := d.CreateUProc("app", parkLoopProgram(d, "app"))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.NewThread(u, u.Image.Entry)
	if err != nil {
		t.Fatal(err)
	}
	d.AttachThread(0, u.Threads()[0])
	d.AttachThread(0, t2)
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	// t2 sits queued on core 0 while the main thread runs.
	if d.QueueLen(0) != 1 {
		t.Fatalf("core 0 queue = %d", d.QueueLen(0))
	}
	// A running thread cannot be migrated.
	if err := d.Migrate(d.Current(0), 0, 1); err == nil {
		t.Fatal("migrated a running thread")
	}
	// Migrate the queued one to core 1 and run it there.
	if err := d.Migrate(t2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if d.QueueLen(0) != 0 || d.QueueLen(1) != 1 {
		t.Fatal("queues after migration")
	}
	if err := d.StartCore(1); err != nil {
		t.Fatal(err)
	}
	d.Machine.Core(1).Run(500)
	if t2.Switches == 0 {
		t.Fatal("migrated thread never ran on core 1")
	}
	// Error paths.
	if err := d.Migrate(t2, 0, 1); err == nil {
		t.Fatal("migrating a non-queued thread accepted")
	}
	if err := d.Migrate(t2, -1, 1); err == nil || d.Migrate(t2, 0, 9) == nil {
		t.Fatal("out-of-range cores accepted")
	}
}
