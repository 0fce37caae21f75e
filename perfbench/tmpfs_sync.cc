// Preloaded (LD_PRELOAD) into the load generator and every server it
// spawns: fsync and fdatasync return at once, as they do on tmpfs.
//
// Why: the durable workload's WAL and checkpoints are meant to sit on tmpfs
// -- an fsync on a shared disk swings from 0.1 ms to over 100 ms with other
// tenants' I/O, which drowns every other effect (on a shared 4-vCPU VM the
// BATCH_INSERT p50 ranged from 9 ms to 3 s over five runs) -- but the
// benchmark writes nothing outside its checkout, which lives on such a disk. With this preload the
// files stay in the checkout and behave as on tmpfs: every write, rename and
// delete still happens, the data survives a SIGKILL of the server (the
// crash the benchmark injects), and only power-loss durability, which tmpfs
// lacks too, is given up.

extern "C" int fsync(int /*fd*/) { return 0; }
extern "C" int fdatasync(int /*fd*/) { return 0; }
