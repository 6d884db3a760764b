package bench

import (
	"testing"
)

func TestAblationShuffleShape(t *testing.T) {
	env := smallEnv(t)
	_, _, rShuf, gShuf := AblationShuffle(env.Ctx, 20_000, 16)
	// Map-side combine must shuffle at most keys×partitions records;
	// groupByKey shuffles every record.
	if gShuf != 20_000 {
		t.Errorf("groupByKey shuffled %d, want 20000", gShuf)
	}
	if rShuf >= gShuf/10 {
		t.Errorf("reduceByKey shuffled %d, want far fewer than %d", rShuf, gShuf)
	}
}

func TestAblationSelectorIndexRuns(t *testing.T) {
	env := smallEnv(t)
	idx, scan := AblationSelectorIndex(env, 4)
	if idx <= 0 || scan <= 0 {
		t.Errorf("timings: indexed=%g scan=%g", idx, scan)
	}
}

func TestAblationRTreeBuildShape(t *testing.T) {
	bulk, insert := AblationRTreeBuild(20_000)
	// STR bulk loading is the fast path for throwaway indexes.
	if bulk >= insert {
		t.Errorf("bulk build (%.1f ms) not faster than insertion (%.1f ms)", bulk, insert)
	}
}

func TestAblationTableRenders(t *testing.T) {
	env := smallEnv(t)
	tab := AblationTable(env)
	if len(tab.Rows) != 4 {
		t.Errorf("ablation rows = %d", len(tab.Rows))
	}
}
