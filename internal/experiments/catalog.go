package experiments

// CatalogEntry names one experiment id accepted by cmd/experiments -only,
// with a one-line description for -list.
type CatalogEntry struct {
	ID          string
	Description string
}

// Catalog enumerates every figure/table id the runner knows, in the
// order the full suite prints them.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{"table1", "workload operation mix of the emulated auction site"},
		{"table2", "fault kinds vs detection/recovery outcome"},
		{"table3", "recovery time: microreboot vs JVM restart vs node reboot"},
		{"figure1", "failed user actions during fault + recovery, by recovery kind"},
		{"figure2", "goodput timeline around a fault, microreboot vs restart"},
		{"figure3", "cluster goodput under rolling faults, with/without microreboots"},
		{"figure4", "failover + microreboot vs failover + restart (also table4)"},
		{"table5", "fault-free throughput and latency: JBoss vs JBoss+µRB, FastS vs SSM"},
		{"table6", "failed requests per µRB with and without Retry-After masking"},
		{"figure5", "detection-delay (Tdet) curve and false-positive tolerance"},
		{"figure6", "microrejuvenation vs JVM-restart rejuvenation under leaks"},
		{"ablation", "extension: sentinel-to-crash detection delay sweep"},
		{"section61", "section 6.1 cost/benefit arithmetic from measured results"},
	}
}
