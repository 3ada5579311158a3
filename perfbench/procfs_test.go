package main

import "testing"

func TestParseProcStat(t *testing.T) {
	// Field 2 holds spaces and a ')' — counting must start after the last ')'.
	stat := "4242 (murakkab d) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 " +
		"250 75 0 0 20 0 9 0 123456 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	ms, err := parseProcStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(250+75) * 1000 / clockTicks; ms != want {
		t.Errorf("cpu = %v ms, want %v", ms, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 u s 0"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tmurakkabd\nVmPeak:\t 1300000 kB\nVmSize:\t 1200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	mb, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if mb != 50 {
		t.Errorf("VmHWM = %v MB, want 50", mb)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}
