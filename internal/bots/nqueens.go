package bots

import (
	"sync/atomic"

	"repro/internal/omp"
	"repro/internal/pomp"
	"repro/internal/region"
)

// nqueens counts all placements of n queens on an n×n board. One task is
// created per valid queen placement per row; the cut-off variant stops
// creating tasks below a recursion depth and counts serially — the
// Section VI case study ("stopping task creation at level 3 ... provides
// a speedup of 16").

var (
	nqPar  = region.MustRegister("nqueens.parallel", "nqueens.go", 20, region.Parallel)
	nqTask = region.MustRegister("nqueens.task", "nqueens.go", 30, region.Task)
	nqTW   = region.MustRegister("nqueens.taskwait", "nqueens.go", 40, region.Taskwait)
)

var nqueensParams = map[Size]int{
	SizeTiny:   8,
	SizeSmall:  10,
	SizeMedium: 12,
}

// nqueensCutoffDepth matches the paper's finding that depth 3 provides
// enough tasks "to fill and balance up to 8 threads".
const nqueensCutoffDepth = 3

// nqOK reports whether a queen in row len(board) at column col conflicts
// with the partial placement.
func nqOK(board []int8, col int8) bool {
	row := len(board)
	for r, c := range board {
		if c == col {
			return false
		}
		d := row - r
		if int(c)+d == int(col) || int(c)-d == int(col) {
			return false
		}
	}
	return true
}

func nqueensSerial(board []int8, n int) int64 {
	row := len(board)
	if row == n {
		return 1
	}
	var count int64
	for col := int8(0); int(col) < n; col++ {
		if nqOK(board, col) {
			count += nqueensSerial(append(board, col), n)
		}
	}
	return count
}

// nqueensTaskRec is the task body: try all columns of the current row;
// valid placements become child tasks (each with its own copy of the
// board, as in BOTS), then taskwait.
func nqueensTaskRec(t *omp.Thread, board []int8, n, cutoff int, depthParam bool, count *atomic.Int64) {
	row := len(board)
	if row == n {
		count.Add(1)
		return
	}
	if cutoff > 0 && row >= cutoff {
		count.Add(nqueensSerial(board, n))
		return
	}
	for col := int8(0); int(col) < n; col++ {
		if !nqOK(board, col) {
			continue
		}
		child := make([]int8, row+1)
		copy(child, board)
		child[row] = col
		t.NewTask(nqTask, func(c *omp.Thread) {
			if depthParam {
				// Parameter instrumentation splitting the task tree by
				// recursion depth (paper Table IV).
				pomp.ParameterInt(c, "depth", int64(row))
			}
			nqueensTaskRec(c, child, n, cutoff, depthParam, count)
		})
	}
	t.Taskwait(nqTW)
}

func nqueensKernel(n, cutoff int, depthParam bool) Kernel {
	return func(rt *omp.Runtime, threads int) uint64 {
		var count atomic.Int64
		var started atomic.Bool
		rt.Parallel(threads, nqPar, func(t *omp.Thread) {
			if started.CompareAndSwap(false, true) {
				nqueensTaskRec(t, nil, n, cutoff, depthParam, &count)
			}
		})
		return uint64(count.Load())
	}
}

// NQueensSpec is the nqueens benchmark.
var NQueensSpec = &Spec{
	Name:      "nqueens",
	HasCutoff: true,
	Prepare: func(size Size, cutoff bool) Kernel {
		co := 0
		if cutoff {
			co = nqueensCutoffDepth
		}
		return nqueensKernel(nqueensParams[size], co, false)
	},
	Expected: func(size Size) uint64 {
		return uint64(nqueensSerial(nil, nqueensParams[size]))
	},
}

// NQueensDepthKernel returns the non-cut-off nqueens kernel with the
// per-depth parameter instrumentation of Table IV enabled.
func NQueensDepthKernel(size Size) Kernel {
	return nqueensKernel(nqueensParams[size], 0, true)
}

// NQueensBoardSize exposes the board size for reporting.
func NQueensBoardSize(size Size) int { return nqueensParams[size] }
