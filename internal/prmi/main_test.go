package prmi

import (
	"testing"

	"mxn/internal/bufpool/pooltest"
)

func TestMain(m *testing.M) { pooltest.Main(m) }
