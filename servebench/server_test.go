package main

import (
	"slices"
	"testing"
)

func TestServerEnvDropsSettingsThatChangeTheMeasurement(t *testing.T) {
	got := serverEnv([]string{
		"PATH=/bin", "CHAINSERVE_STORE_DIR=/tmp/s", "CHAINSERVE_SHARDS=8", "GOGC=off",
		"GOMEMLIMIT=1GiB", "GOMAXPROCS=1", "GODEBUG=gctrace=1", "HOME=/home/u", "GOGCX=1",
	})
	want := []string{"PATH=/bin", "HOME=/home/u", "GOGCX=1"}
	if !slices.Equal(got, want) {
		t.Fatalf("serverEnv = %q, want %q", got, want)
	}
}
